package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestFrameRecordRoundTrips(t *testing.T) {
	frame, err := FrameRecord([]byte(`{"probe":"x.y","iter":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if frame[len(frame)-1] != '\n' {
		t.Fatal("frame missing trailing newline")
	}
	payload, err := parseLine(bytes.TrimSuffix(frame, []byte("\n")))
	if err != nil {
		t.Fatalf("framed record fails its own checksum: %v", err)
	}
	if string(payload) != `{"probe":"x.y","iter":3}` {
		t.Errorf("payload = %s", payload)
	}
}

func TestFrameRecordRejectsBadPayloads(t *testing.T) {
	if _, err := FrameRecord([]byte("not json")); err == nil {
		t.Error("non-JSON record accepted")
	}
	if _, err := FrameRecord([]byte("{\n}")); err == nil {
		t.Error("multi-line record accepted")
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("got %d records from a missing file", len(recs))
	}
}

// ReadJournal must tolerate a torn tail exactly like OpenJournal, but
// without truncating: report tools read journals they do not own.
func TestReadJournalTornTailLeavesFileIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf(`{"seq":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a frame, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":"0000`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if string(recs[2]) != `{"seq":2}` {
		t.Errorf("last record = %s", recs[2])
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("ReadJournal mutated the journal file")
	}
}

func TestReadJournalEarlierCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	frame, err := FrameRecord([]byte(`{"ok":true}`))
	if err != nil {
		t.Fatal(err)
	}
	content := append([]byte("garbage line\n"), frame...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadJournal(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Line != 1 {
		t.Errorf("corrupt line = %d, want 1", ce.Line)
	}
}

// noSync skips fsync: the fuzzer writes thousands of throwaway journals,
// and durability is not what it checks.
type noSync struct{ File }

func (noSync) Sync() error { return nil }

// FuzzOpenJournal writes arbitrary bytes as a journal file. ReadJournal
// and OpenJournal must agree: the same records, or both the same
// *CorruptError with Line ≥ 1 and the file left as it was. After a
// successful open, one Append must read back as the old records plus the
// new one.
func FuzzOpenJournal(f *testing.F) {
	good, err := FrameRecord([]byte(`{"kind":"accept","id":"a"}`))
	if err != nil {
		f.Fatal(err)
	}
	next, err := FrameRecord([]byte(`{"seq":1}`))
	if err != nil {
		f.Fatal(err)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{})
	f.Add(join(good, next))
	f.Add(join(good, next[:len(next)/2]))                         // torn tail
	f.Add(join(good, next[:len(next)-1]))                         // the newline never landed
	f.Add(join([]byte("garbage line\n"), good))                   // corrupt first line
	f.Add(join(good, []byte(`{"crc":"00000000","rec":{}}`+"\n"))) // bad checksum, last line
	f.Add(join(good, []byte(`{"crc":"00000000","rec":{}}`+"\n"), next))
	WrapFile = func(f File) File { return noSync{f} }
	f.Cleanup(func() { WrapFile = nil })
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, readErr := ReadJournal(path)
		j, opened, openErr := OpenJournal(path)
		var rce, oce *CorruptError
		errors.As(readErr, &rce)
		errors.As(openErr, &oce)
		if rce != nil || oce != nil {
			if rce == nil || oce == nil || *rce != *oce || rce.Line < 1 {
				t.Fatalf("ReadJournal: %v; OpenJournal: %v; want the same *CorruptError with Line ≥ 1", readErr, openErr)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("a refused journal was changed")
			}
			return
		}
		if readErr != nil || openErr != nil {
			t.Fatalf("ReadJournal: %v; OpenJournal: %v", readErr, openErr)
		}
		defer j.Close()
		if !slices.EqualFunc(read, opened, bytes.Equal) {
			t.Fatalf("ReadJournal read %q, OpenJournal %q", read, opened)
		}
		rec := []byte(`{"appended":true}`)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		after, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("after one append: %v", err)
		}
		if want := append(opened, rec); !slices.EqualFunc(after, want, bytes.Equal) {
			t.Fatalf("after one append the journal reads %q, want %q", after, want)
		}
	})
}
