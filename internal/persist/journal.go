package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
)

// A Journal is an append-only JSONL log with a CRC32-C checksum on every
// record. Each line is a self-contained JSON object
//
//	{"crc":"xxxxxxxx","rec":<payload>}
//
// where crc is the checksum of the payload bytes exactly as they appear.
// Appends are fsynced, so a record that Append returned nil for survives
// a crash. A crash *during* an append leaves a torn final line (no
// newline, or a half-written record); OpenJournal discards it and
// truncates the file back to the last good record, which is the
// crash-consistency contract sweep manifests rely on. A bad record
// anywhere before the final line cannot be produced by an append crash
// and is reported as a *CorruptError instead of silently dropped.
//
// A failed Append can leave a torn frame at the tail, which a later
// append would bury mid-file. So after one Append fails, the journal
// refuses every later Append until OpenJournal, which drops the torn
// tail, reopens it.
type Journal struct {
	f      File
	path   string
	failed error // first write or sync failure
}

// CorruptError reports a journal record that failed validation somewhere
// other than the (tolerated) torn tail.
type CorruptError struct {
	Path   string
	Line   int    // 1-based line number of the bad record
	Reason string // what failed: framing, checksum, ...
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: corrupt journal %s: line %d: %s", e.Path, e.Line, e.Reason)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func crcHex(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(payload, crcTable))
}

// journalLine is the on-disk framing of one record.
type journalLine struct {
	CRC string          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// OpenJournal opens (creating if absent) the journal at path, replays its
// records, and returns the journal positioned for appending plus the
// replayed payloads in append order. A torn final record is discarded and
// counted under persist.journal.torn; earlier corruption returns a
// *CorruptError and no journal.
func OpenJournal(path string) (*Journal, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	records, goodLen, repErr := replay(path, data)
	if repErr != nil {
		return nil, nil, repErr
	}
	if int64(goodLen) < int64(len(data)) {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts on a record boundary.
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return nil, nil, fmt.Errorf("persist: truncating torn journal %s: %w", path, err)
		}
		Count("persist.journal.torn")
	}
	osf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: wrap(osf), path: path}, records, nil
}

// replay validates data as journal content and returns the record
// payloads plus the byte length of the good prefix. Only the final line
// may be bad (torn); a bad earlier line is a *CorruptError.
func replay(path string, data []byte) (records [][]byte, goodLen int, err error) {
	off := 0
	line := 0
	for off < len(data) {
		line++
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: torn tail, tolerated.
			return records, off, nil
		}
		raw := data[off : off+nl]
		payload, perr := parseLine(raw)
		if perr != nil {
			if off+nl+1 >= len(data) {
				// Bad final line (e.g. the crash raced the newline out but
				// not the record body): tolerated like a missing newline.
				return records, off, nil
			}
			return nil, 0, &CorruptError{Path: path, Line: line, Reason: perr.Error()}
		}
		records = append(records, payload)
		off += nl + 1
	}
	return records, off, nil
}

// ReadJournal replays the journal at path without opening it for append
// and without mutating it: a torn final record is discarded (and counted
// under persist.journal.torn) but the file is left exactly as found, so
// report tools can inspect a journal another process may still own.
// Earlier corruption is a *CorruptError, as in OpenJournal. A missing
// file reads as an empty journal.
func ReadJournal(path string) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	records, goodLen, repErr := replay(path, data)
	if repErr != nil {
		return nil, repErr
	}
	if goodLen < len(data) {
		Count("persist.journal.torn")
	}
	return records, nil
}

// FrameRecord wraps rec (which must be a single line of valid JSON) in
// the journal's on-disk framing — {"crc":"xxxxxxxx","rec":<payload>} plus
// a trailing newline. It is exported so collectors that buffer records in
// memory (internal/obs event logs) can emit journal-compatible files
// through WriteTo instead of paying a per-record fsync.
func FrameRecord(rec []byte) ([]byte, error) {
	if !json.Valid(rec) {
		return nil, fmt.Errorf("persist: journal record is not valid JSON")
	}
	if bytes.IndexByte(rec, '\n') >= 0 {
		return nil, fmt.Errorf("persist: journal record contains a newline")
	}
	frame, err := json.Marshal(journalLine{CRC: crcHex(rec), Rec: json.RawMessage(rec)})
	if err != nil {
		return nil, err
	}
	return append(frame, '\n'), nil
}

// parseLine unframes one journal line and verifies its checksum.
func parseLine(raw []byte) ([]byte, error) {
	var jl journalLine
	if err := json.Unmarshal(raw, &jl); err != nil {
		return nil, fmt.Errorf("unparseable frame: %v", err)
	}
	if jl.Rec == nil {
		return nil, fmt.Errorf("frame missing rec field")
	}
	if got := crcHex(jl.Rec); got != jl.CRC {
		return nil, fmt.Errorf("checksum mismatch: frame says %s, payload is %s", jl.CRC, got)
	}
	return jl.Rec, nil
}

// Append frames each of recs (each a single line of valid JSON), writes
// the frames with one write, and fsyncs once. When Append returns nil
// every record is durable. A crash mid-write can leave the leading
// frames whole and the next one torn; OpenJournal keeps the whole ones.
func (j *Journal) Append(recs ...[]byte) error {
	var frames []byte
	for _, rec := range recs {
		frame, err := FrameRecord(rec)
		if err != nil {
			return fmt.Errorf("%w (journal %s)", err, j.path)
		}
		frames = append(frames, frame...)
	}
	if j.failed != nil {
		return fmt.Errorf("persist: journal %s refuses appends after a failed one (reopen to recover): %w", j.path, j.failed)
	}
	if _, err := j.f.Write(frames); err != nil {
		j.failed = fmt.Errorf("persist: appending to journal %s: %w", j.path, err)
		return j.failed
	}
	if err := j.f.Sync(); err != nil {
		j.failed = fmt.Errorf("persist: syncing journal %s: %w", j.path, err)
		return j.failed
	}
	for range recs {
		Count("persist.journal.append")
	}
	return nil
}

// Close closes the journal's file handle. Records already appended remain
// durable; the journal can be reopened with OpenJournal.
func (j *Journal) Close() error { return j.f.Close() }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }
