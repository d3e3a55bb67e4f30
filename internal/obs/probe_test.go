package obs

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphio/internal/persist"
)

func resetProbes(t *testing.T) {
	t.Helper()
	StopEvents()
	ResetEvents()
	t.Cleanup(func() {
		StopEvents()
		ResetEvents()
		SetClock(nil)
	})
}

func TestProbeDisabledIsInert(t *testing.T) {
	resetProbes(t)
	Probe("linalg.lanczos").IterCtx(context.Background(), 0, F("resid", 0.5))
	if n, _ := EventStats(); n != 0 {
		t.Errorf("disabled collector buffered %d events", n)
	}
	if EventsEnabled() {
		t.Error("EventsEnabled true before StartEvents")
	}
}

// TestProbeEventRoundTrip drives the collector with an injected clock and
// checks the dumped file is a CRC-clean persist journal whose payloads
// are byte-for-byte deterministic.
func TestProbeEventRoundTrip(t *testing.T) {
	resetProbes(t)
	base := time.Unix(1700000000, 0)
	tick := 0
	SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	})
	StartEvents()
	if !EventsEnabled() {
		t.Fatal("EventsEnabled false after StartEvents")
	}
	Probe("linalg.lanczos").IterCtx(context.Background(), 0, F("resid", 0.5), FI("locked", 2))
	Probe("linalg.lanczos").IterCtx(context.Background(), 1, F("bad", math.NaN()), F("width", 1e-9))
	Probe("pebble.simulate").IterCtx(context.Background(), 4096)
	StopEvents()
	Probe("linalg.lanczos").IterCtx(context.Background(), 2, F("resid", 0.1))

	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := DumpEvents(path); err != nil {
		t.Fatal(err)
	}
	recs, err := persist.ReadJournal(path)
	if err != nil {
		t.Fatalf("dumped event log is not a clean journal: %v", err)
	}
	want := []string{
		`{"probe":"linalg.lanczos","iter":0,"t_ns":1000000,"f":{"resid":0.5,"locked":2}}`,
		`{"probe":"linalg.lanczos","iter":1,"t_ns":2000000,"f":{"width":1e-09}}`,
		`{"probe":"pebble.simulate","iter":4096,"t_ns":3000000,"f":{}}`,
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if string(recs[i]) != w {
			t.Errorf("record %d = %s, want %s", i, recs[i], w)
		}
	}
}

func TestWriteEventsDeterministic(t *testing.T) {
	resetProbes(t)
	base := time.Unix(1700000000, 0)
	SetClock(func() time.Time { return base })
	StartEvents()
	for i := int64(0); i < 10; i++ {
		Probe("mincut.sweep").IterCtx(context.Background(), i, FI("cut", 100-i), FI("best", 90))
	}
	StopEvents()
	var a, b strings.Builder
	if err := WriteEvents(&a); err != nil {
		t.Fatal(err)
	}
	if err := WriteEvents(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two WriteEvents of the same buffer differ")
	}
	if a.Len() == 0 {
		t.Error("no output")
	}
}

// Concurrent emitters (the mincut worker pool) must be safe under -race
// and lose nothing below the buffer bound.
func TestProbeConcurrentEmit(t *testing.T) {
	resetProbes(t)
	StartEvents()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := Probe("mincut.sweep")
			for i := 0; i < per; i++ {
				p.IterCtx(context.Background(), int64(i), FI("worker", int64(w)))
			}
		}(w)
	}
	wg.Wait()
	StopEvents()
	if n, dropped := EventStats(); n != workers*per || dropped != 0 {
		t.Errorf("buffered %d (dropped %d), want %d", n, dropped, workers*per)
	}
}
