// Crash-consistency coverage for the atomic write primitives: every
// failure mode a dying disk or killed process can produce must leave the
// destination either absent or with its previous complete content, and
// must leave no stray temp files behind after cleanup. Faults are driven
// deterministically through faultinject.File via the WrapFile hook, which
// is why this lives in package persist_test (faultinject depends on obs,
// which depends on persist).
package persist_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphio/internal/faultinject"
	"graphio/internal/persist"
)

// withFaultyFiles routes every file persist opens through a fresh
// faultinject.File configured by mk, restoring the hook on cleanup.
func withFaultyFiles(t *testing.T, mk func(f persist.File) *faultinject.File) {
	t.Helper()
	persist.WrapFile = func(f persist.File) persist.File { return mk(f) }
	t.Cleanup(func() { persist.WrapFile = nil })
}

func mustReadFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// noTemps asserts the directory holds no staged temp files.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s left behind", e.Name())
		}
	}
}

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	if err := persist.WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := mustReadFile(t, path); got != "first" {
		t.Fatalf("content = %q", got)
	}
	// Overwrite: the replace must be total.
	if err := persist.WriteFileAtomic(path, []byte("second, longer than before"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got := mustReadFile(t, path); got != "second, longer than before" {
		t.Fatalf("content after replace = %q", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("perm = %o, want 600", perm)
	}
	noTemps(t, dir)
}

func TestWriterAbortOnCloseLeavesDestinationUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := persist.WriteFileAtomic(path, []byte("previous good content"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := persist.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(w, "half of the new con")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustReadFile(t, path); got != "previous good content" {
		t.Fatalf("abort clobbered destination: %q", got)
	}
	if err := w.Commit(); err == nil {
		t.Error("Commit after Close succeeded")
	}
	noTemps(t, dir)
}

func TestWriterTornWriteNeverPublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := persist.WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	withFaultyFiles(t, func(f persist.File) *faultinject.File {
		return &faultinject.File{F: f, FailWriteAfter: 8}
	})
	w, err := persist.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write([]byte("this is far more than eight bytes")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn write error = %v, want injected fault", err)
	}
	// The sticky write error must also poison Commit.
	if err := w.Commit(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Commit after torn write = %v, want injected fault", err)
	}
	if got := mustReadFile(t, path); got != "old" {
		t.Fatalf("destination changed after torn write: %q", got)
	}
	noTemps(t, dir)
}

func TestWriterSyncFailureAborts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	withFaultyFiles(t, func(f persist.File) *faultinject.File {
		return &faultinject.File{F: f, FailOnSync: 1}
	})
	w, err := persist.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(w, "data that never becomes durable")
	if err := w.Commit(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Commit with failing sync = %v, want injected fault", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("destination exists after failed commit")
	}
	noTemps(t, dir)
}

func TestWriteToAbortsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	boom := errors.New("renderer blew up")
	err := persist.WriteTo(path, func(w io.Writer) error {
		fmt.Fprint(w, "partial render")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("destination exists after failed render")
	}
	noTemps(t, dir)
}

func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	// Simulate a SIGKILL between create and rename: a staged temp with no
	// owner, plus files that must survive the sweep.
	for _, name := range []string{".persist-123456.tmp", ".persist-zz.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.csv"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := persist.RemoveStaleTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d temps, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.csv")); err != nil {
		t.Error("sweep removed a real artifact")
	}
	if n, _ := persist.RemoveStaleTemps(filepath.Join(dir, "no-such-dir")); n != 0 {
		t.Error("sweep of a missing directory removed something")
	}
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	j, recs, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []string{`{"seq":1}`, `{"seq":2,"x":"y"}`, `{"seq":3}`}
	for _, r := range want {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append([]byte("not json")); err == nil {
		t.Error("non-JSON record accepted")
	}
	if err := j.Append([]byte("{\n}")); err == nil {
		t.Error("record with embedded newline accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if string(r) != want[i] {
			t.Errorf("record %d = %s, want %s", i, r, want[i])
		}
	}
}

func TestJournalToleratesTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf(`{"seq":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{
		`{"crc":"00000000","rec":{"seq`,             // cut mid-record, no newline
		`{"crc":"deadbeef","rec":{"seq":9}}` + "\n", // full line, wrong checksum
		"garbage\n", // full line, not a frame
		"{",         // single byte of the next frame
	} {
		if err := os.WriteFile(path, append(append([]byte{}, good...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := persist.OpenJournal(path)
		if err != nil {
			t.Fatalf("tail %q: replay failed: %v", tail, err)
		}
		if len(recs) != 3 {
			t.Fatalf("tail %q: replayed %d records, want 3", tail, len(recs))
		}
		// The torn tail must be gone: appending and replaying again stays clean.
		if err := j2.Append([]byte(`{"seq":99}`)); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		_, recs, err = persist.OpenJournal(path)
		if err != nil {
			t.Fatalf("tail %q: replay after repair failed: %v", tail, err)
		}
		if len(recs) != 4 || string(recs[3]) != `{"seq":99}` {
			t.Fatalf("tail %q: post-repair records = %d", tail, len(recs))
		}
		// Reset for the next tail shape.
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// One Append of several records is one write: a crash can cut it at any
// byte, and replay must then keep every record before the Append plus
// the frames of it that landed whole, never part of a frame.
func TestJournalMultiRecordAppendTearsToWholeFrames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"seq":0}`)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"seq":1}`), []byte("not json")); err == nil {
		t.Fatal("an Append with a non-JSON record succeeded")
	}
	if got := mustReadFile(t, path); got != string(before) {
		t.Fatalf("a refused Append wrote %q", got[len(before):])
	}
	appends := 0
	count := persist.Count
	persist.Count = func(name string) {
		if name == "persist.journal.append" {
			appends++
		}
	}
	err = j.Append([]byte(`{"seq":1,"kind":"accept"}`), []byte(`{"seq":2,"kind":"done"}`))
	persist.Count = count
	if err != nil {
		t.Fatal(err)
	}
	if appends != 2 {
		t.Errorf("persist.journal.append counted %d for a two-record Append, want 2 (one per record)", appends)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := persist.FrameRecord([]byte(`{"seq":1,"kind":"accept"}`))
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(before); cut <= len(full); cut++ {
		want := 1
		switch {
		case cut == len(full):
			want = 3
		case cut >= len(before)+len(first):
			want = 2
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := persist.OpenJournal(path)
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		j2.Close()
		if len(recs) != want {
			t.Fatalf("cut at byte %d of %d: replayed %d records, want %d", cut, len(full), len(recs), want)
		}
		for i, rec := range recs {
			if !strings.HasPrefix(string(rec), fmt.Sprintf(`{"seq":%d`, i)) {
				t.Fatalf("cut at byte %d: record %d = %s", cut, i, rec)
			}
		}
	}
}

func TestJournalMidFileCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf(`{"seq":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload: checksum mismatch in
	// the middle of the file, which append crashes cannot produce.
	idx := strings.Index(string(data), `"seq":0`)
	data[idx+6] = '7'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = persist.OpenJournal(path)
	var ce *persist.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption error = %v, want *CorruptError", err)
	}
	if ce.Line != 1 {
		t.Errorf("corrupt line = %d, want 1", ce.Line)
	}
}

// shortWrite cuts exactly one write (the n-th) in half and fails it,
// then passes every later write through: a transient fault, like a disk
// that fills up and frees again.
type shortWrite struct {
	persist.File
	n int
}

func (w *shortWrite) Write(p []byte) (int, error) {
	if w.n--; w.n != 0 {
		return w.File.Write(p)
	}
	n, _ := w.File.Write(p[:len(p)/2])
	return n, errors.New("injected short write")
}

// A failed append leaves half a frame at the tail. An append after it
// would merge with that half into one unparseable line, losing a record
// the journal acknowledged, and a second one would turn the torn tail
// into mid-file corruption. So the journal must refuse every append
// after a failed one, and reopening must drop the torn tail cleanly.
func TestJournalRefusesAppendsAfterAFailedOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	persist.WrapFile = func(f persist.File) persist.File { return &shortWrite{File: f, n: 2} }
	t.Cleanup(func() { persist.WrapFile = nil })
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"seq":2}`)); err == nil {
		t.Fatal("the cut append reported success")
	}
	for _, rec := range []string{`{"seq":3}`, `{"seq":4}`} {
		if err := j.Append([]byte(rec)); err == nil {
			t.Fatalf("append %s after a failed one succeeded", rec)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	persist.WrapFile = nil
	j, recs, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if len(recs) != 1 || string(recs[0]) != `{"seq":1}` {
		t.Fatalf("reopen replayed %q, want only the acknowledged {\"seq\":1}", recs)
	}
	if err := j.Append([]byte(`{"seq":5}`)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestLockExcludesLiveOwnerAndStealsDeadOne(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.lock")
	l, err := persist.AcquireLock(path)
	if err != nil {
		t.Fatal(err)
	}
	// Held by this (live) process: a second acquire must fail typed.
	if _, err := persist.AcquireLock(path); !errors.Is(err, persist.ErrLocked) {
		t.Fatalf("second acquire = %v, want ErrLocked", err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("lock file survives Release")
	}
	// A lock whose owner died (SIGKILL aftermath) must be stolen. PID from
	// a long-dead range: max pid on this box is far below 4 million.
	if err := os.WriteFile(path, []byte("4194000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := persist.AcquireLock(path)
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	l2.Release()
	// Garbage contents count as stale too.
	if err := os.WriteFile(path, []byte("not a pid"), 0o644); err != nil {
		t.Fatal(err)
	}
	l3, err := persist.AcquireLock(path)
	if err != nil {
		t.Fatalf("garbage lock not stolen: %v", err)
	}
	l3.Release()
}
