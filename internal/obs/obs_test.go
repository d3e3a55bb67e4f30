package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersGaugesTimers(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 3)
	r.Inc("c")
	r.SetGauge("g", 2.5)
	r.Observe("t", 10*time.Millisecond)
	r.Observe("t", 30*time.Millisecond)

	if got := r.Counter("c"); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if got := r.Gauge("g"); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	s := r.Snapshot()
	ts := s.Timers["t"]
	if ts.Count != 2 || ts.TotalNS != int64(40*time.Millisecond) {
		t.Errorf("timer = %+v", ts)
	}
	if ts.MinNS != int64(10*time.Millisecond) || ts.MaxNS != int64(30*time.Millisecond) {
		t.Errorf("timer min/max = %+v", ts)
	}
	if ts.AvgNS != int64(20*time.Millisecond) {
		t.Errorf("timer avg = %d", ts.AvgNS)
	}
}

func TestRegistryDropsNonFiniteGauges(t *testing.T) {
	r := NewRegistry()
	r.SetGauge("ok", 1)
	r.SetGauge("ok", math.NaN())
	r.SetGauge("ok", math.Inf(1))
	if got := r.Gauge("ok"); got != 1 {
		t.Errorf("gauge = %g, want last finite value 1", got)
	}
	// The JSON emitter must never see a value it cannot encode.
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; its
// real assertion is the -race run (`make test-race`), the count check is a
// bonus.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc("shared")
				r.Add("shared", 1)
				r.SetGauge("latest", float64(i))
				r.Observe("dur", time.Duration(i))
				r.Inc("own-" + string(rune('a'+w)))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared"); got != 2*workers*perWorker {
		t.Errorf("shared = %d, want %d", got, 2*workers*perWorker)
	}
	if s := r.Snapshot(); s.Timers["dur"].Count != workers*perWorker {
		t.Errorf("timer count = %d", s.Timers["dur"].Count)
	}
}

// TestPackageHelpersConcurrentWhileToggling exercises the global enable
// gate under concurrent process-level (nil-scope) metric traffic — the
// exact interleaving the race detector needs to certify.
func TestPackageHelpersConcurrentWhileToggling(t *testing.T) {
	Reset()
	Enable(true)
	defer func() {
		Enable(false)
		Reset()
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				process.Inc("global")
				process.Observe("gdur", time.Microsecond)
				process.SetGauge("gg", 1)
				stop := process.Time("stopwatch")
				stop()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			Enable(i%2 == 0)
		}
	}()
	wg.Wait()
	// The test's real assertion is that the race detector stays quiet; the
	// recorded totals depend on toggle timing. One guaranteed-enabled
	// increment checks the registry still works after the churn.
	Enable(true)
	process.Inc("global")
	if got := Default().Counter("global"); got == 0 {
		t.Error("no global increments recorded")
	}
}

func TestDisabledHelpersAreInert(t *testing.T) {
	Reset()
	Enable(false)
	process.Inc("never")
	process.Observe("never", time.Second)
	process.SetGauge("never", 1)
	process.Time("never")()
	s := Default().Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Timers) != 0 {
		t.Errorf("disabled helpers recorded metrics: %+v", s)
	}
}

func TestWriteJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Add("linalg.matvecs", 42)
	r.SetGauge("wall_seconds", 1.5)
	r.Observe("core.boundk", 5*time.Microsecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if s.Counters["linalg.matvecs"] != 42 || s.Gauges["wall_seconds"] != 1.5 {
		t.Errorf("round-trip = %+v", s)
	}
	if s.Timers["core.boundk"].Count != 1 {
		t.Errorf("timers = %+v", s.Timers)
	}
}

// TestTimerMinSeededByFirstObserve pins the first-observation edge: the
// zero value of timer.min must never leak into the stats as a fake 0ns
// minimum — the first Observe seeds it, later ones only lower it.
func TestTimerMinSeededByFirstObserve(t *testing.T) {
	r := NewRegistry()
	r.Observe("t", 5*time.Millisecond)
	if st := r.Snapshot().Timers["t"]; st.MinNS != int64(5*time.Millisecond) {
		t.Fatalf("first observe min = %dns, want 5ms (zero-value min leaked)", st.MinNS)
	}
	r.Observe("t", 10*time.Millisecond) // larger: min must not move
	if st := r.Snapshot().Timers["t"]; st.MinNS != int64(5*time.Millisecond) {
		t.Errorf("min after larger observe = %dns, want 5ms", st.MinNS)
	}
	r.Observe("t", 2*time.Millisecond) // smaller: min must follow
	if st := r.Snapshot().Timers["t"]; st.MinNS != int64(2*time.Millisecond) {
		t.Errorf("min after smaller observe = %dns, want 2ms", st.MinNS)
	}
}

// TestSnapshotOmitsNeverObservedTimer: a timer that exists but was never
// observed must be omitted from exports instead of emitting garbage
// (count=0 with min=max=avg=0 reads like a real measurement).
func TestSnapshotOmitsNeverObservedTimer(t *testing.T) {
	r := NewRegistry()
	r.timer("ghost") // registered, never observed
	r.Observe("real", time.Millisecond)
	s := r.Snapshot()
	if _, ok := s.Timers["ghost"]; ok {
		t.Error("never-observed timer leaked into the snapshot")
	}
	if s.Timers["real"].Count != 1 {
		t.Errorf("timers = %+v", s.Timers)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ghost") {
		t.Errorf("JSON export contains never-observed timer:\n%s", buf.String())
	}
}

func TestWriteTextSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Add("b.counter", 2)
	r.Add("a.counter", 1)
	r.SetGauge("m.gauge", 3)
	r.Observe("z.timer", time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a.counter", "b.counter", "m.gauge", "z.timer", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "a.counter") > strings.Index(out, "b.counter") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}
