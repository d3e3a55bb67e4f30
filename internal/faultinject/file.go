package faultinject

import (
	"errors"
	"fmt"
	"io"
)

// ErrInjected is the default error every injected filesystem fault
// returns; tests assert on it with errors.Is.
var ErrInjected = errors.New("faultinject: injected filesystem fault")

// File wraps a file handle (anything with Write/Sync/Close — the surface
// internal/persist stages its atomic writes through) and fails
// deterministically, modeling a disk that dies partway through an
// artifact write. Thresholds are fixed at construction, so a faulted run
// is exactly reproducible:
//
//   - FailWriteAfter > 0: the write that would carry the cumulative byte
//     count past the threshold is truncated at the threshold and fails —
//     a torn write, the exact shape a crash or full disk produces.
//   - FailOnSync > 0: the n-th Sync call fails without syncing, the
//     moment a commit sequence discovers the data never reached the
//     platter.
//   - FailOnClose: every Close fails (after closing the underlying file,
//     so tests do not leak descriptors).
//
// Wire it into persist via persist.WrapFile to drive crash-consistency
// tests of every artifact writer in the module.
type File struct {
	// F is the wrapped handle. Required.
	F interface {
		io.Writer
		Sync() error
		Close() error
	}

	FailWriteAfter int64 // cumulative byte threshold; 0 = writes never fail
	FailOnSync     int   // 1-based Sync call that fails; 0 = never
	FailOnClose    bool
	Err            error // returned by injected failures; default ErrInjected

	written int64
	syncs   int
	faults  int
}

func (f *File) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// Write implements io.Writer. Once the cumulative byte count would pass
// FailWriteAfter, the write is truncated at the threshold (the prefix
// still reaches the underlying file — torn, like a real partial write)
// and the injected error is returned.
func (f *File) Write(p []byte) (int, error) {
	if f.FailWriteAfter > 0 && f.written+int64(len(p)) > f.FailWriteAfter {
		keep := f.FailWriteAfter - f.written
		if keep < 0 {
			keep = 0
		}
		n := 0
		if keep > 0 {
			n, _ = f.F.Write(p[:keep])
		}
		f.written += int64(n)
		f.fault()
		return n, fmt.Errorf("write of %d bytes cut at %d: %w", len(p), n, f.err())
	}
	n, err := f.F.Write(p)
	f.written += int64(n)
	return n, err
}

// Sync implements the persist.File surface, failing on call FailOnSync.
func (f *File) Sync() error {
	f.syncs++
	if f.FailOnSync > 0 && f.syncs == f.FailOnSync {
		f.fault()
		return fmt.Errorf("sync %d: %w", f.syncs, f.err())
	}
	return f.F.Sync()
}

// Close closes the underlying file and, when FailOnClose is set, reports
// the injected error anyway — the data's fate is unknown, which is the
// point.
func (f *File) Close() error {
	err := f.F.Close()
	if f.FailOnClose {
		f.fault()
		return fmt.Errorf("close: %w", f.err())
	}
	return err
}

// Faults returns how many faults this wrapper injected.
func (f *File) Faults() int { return f.faults }

func (f *File) fault() {
	f.faults++
	process.Inc("faultinject.fs_faults")
}
