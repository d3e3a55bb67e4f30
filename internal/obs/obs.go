// Package obs is the module's stdlib-only observability layer: a race-safe
// metrics registry (counters, gauges, duration timers, log-bucketed
// histograms — histogram.go), a structured span/event API for phase-level
// telemetry (span.go), a trace collector that exports completed spans as
// Chrome trace-event JSON for Perfetto (tracefile.go), an optional HTTP
// debug server with pprof, Prometheus-text /metrics and a /progress
// open-span snapshot (httpdebug.go), and runtime/pprof capture helpers
// (profile.go). The solver packages report iterations-to-convergence,
// mat-vec counts, search-state expansions, per-phase wall times and
// latency distributions through it; the binaries expose it behind
// -v / -metrics-out / -trace-out / -debug-addr / -cpuprofile /
// -memprofile flags (cli.go).
//
// Metrics are emitted through a Scope (scope.go) or the ctx-aware helpers
// that resolve one from a context (AddCtx, IncCtx, ...). A nil *Scope is
// the process itself: its emission lands in the default registry alone.
//
// Everything is off by default. Every emission starts with a single atomic
// load, so instrumented hot paths cost nothing measurable when no flag
// enabled the layer; the heavier call sites additionally batch their
// counts locally and report once per solve.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/persist"
)

var (
	enabled  atomic.Bool
	defaultR = NewRegistry()
)

// process is the nil *Scope: what it emits lands in the default registry
// alone, attributed to no task. Counts that belong to the process rather
// than to any unit of work (persist's, the CLI's wall time) go through it.
var process *Scope

// persist reports its commit/abort/journal events through a hook so it
// can stay dependency-free; point the hook here so persist.* counters
// land in the registry alongside everything else (no-ops while disabled).
func init() {
	persist.Count = process.Inc
}

// Enable turns the default registry on or off. Disabled is the zero state.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether the default registry is collecting.
func Enabled() bool { return enabled.Load() }

// Default returns the process-wide registry every emission feeds.
func Default() *Registry { return defaultR }

// Reset clears every metric in the default registry (tests, mainly).
func Reset() { defaultR.Reset() }

// Registry holds named counters, gauges, timers and histograms. All
// methods are safe for concurrent use; counter, gauge and histogram
// updates are lock-free after the first touch of a name.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*int64
	gauges   map[string]*uint64 // float64 bits
	timers   map[string]*timer
	hists    map[string]*hist
}

type timer struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*int64),
		gauges:   make(map[string]*uint64),
		timers:   make(map[string]*timer),
		hists:    make(map[string]*hist),
	}
}

// Reset drops every metric.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*int64)
	r.gauges = make(map[string]*uint64)
	r.timers = make(map[string]*timer)
	r.hists = make(map[string]*hist)
}

func (r *Registry) counter(name string) *int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(int64)
		r.counters[name] = c
	}
	return c
}

func (r *Registry) gauge(name string) *uint64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(uint64)
		r.gauges[name] = g
	}
	return g
}

func (r *Registry) timer(name string) *timer {
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &timer{}
		r.timers[name] = t
	}
	return t
}

// Add increments counter name by delta (creating it at zero first).
func (r *Registry) Add(name string, delta int64) { atomic.AddInt64(r.counter(name), delta) }

// Inc increments counter name by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of counter name (0 if never touched).
func (r *Registry) Counter(name string) int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(c)
}

// SetGauge records the latest value of gauge name. Non-finite values are
// dropped (the JSON emitter could not represent them anyway).
func (r *Registry) SetGauge(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	atomic.StoreUint64(r.gauge(name), math.Float64bits(v))
}

// Gauge returns the current value of gauge name (0 if never set).
func (r *Registry) Gauge(name string) float64 {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(g))
}

// Observe folds one duration into timer name (count/total/min/max).
func (r *Registry) Observe(name string, d time.Duration) {
	t := r.timer(name)
	t.mu.Lock()
	t.count++
	t.total += d
	if t.count == 1 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.mu.Unlock()
}

// TimerStat is the exported state of one timer.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	AvgNS   int64 `json:"avg_ns"`
}

// Snapshot is a point-in-time copy of a registry, ready for serialization.
type Snapshot struct {
	Counters map[string]int64     `json:"counters"`
	Gauges   map[string]float64   `json:"gauges"`
	Timers   map[string]TimerStat `json:"timers"`
	Hists    map[string]HistStat  `json:"hists"`
}

// Snapshot copies the registry's current state. Timers and histograms that
// exist but were never observed are omitted: their zero values (min=0 or
// min=MaxInt64) would read as garbage in the export.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Timers:   map[string]TimerStat{},
		Hists:    map[string]HistStat{},
	}
	r.mu.RLock()
	counters := make(map[string]*int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*uint64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	hists := make(map[string]*hist, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = atomic.LoadInt64(v)
	}
	for k, v := range gauges {
		s.Gauges[k] = math.Float64frombits(atomic.LoadUint64(v))
	}
	for k, t := range timers {
		t.mu.Lock()
		st := TimerStat{Count: t.count, TotalNS: t.total.Nanoseconds(), MinNS: t.min.Nanoseconds(), MaxNS: t.max.Nanoseconds()}
		t.mu.Unlock()
		if st.Count == 0 {
			continue
		}
		st.AvgNS = st.TotalNS / st.Count
		s.Timers[k] = st
	}
	for k, h := range hists {
		st := h.stat()
		if st.Count == 0 {
			continue
		}
		s.Hists[k] = st
	}
	return s
}

// WriteJSON emits the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText emits the registry as sorted human-readable lines.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "counter %-42s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "gauge   %-42s %g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Timers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t := s.Timers[k]
		if _, err := fmt.Fprintf(w, "timer   %-42s count=%d total=%v avg=%v min=%v max=%v\n",
			k, t.Count,
			time.Duration(t.TotalNS).Round(time.Microsecond),
			time.Duration(t.AvgNS).Round(time.Microsecond),
			time.Duration(t.MinNS).Round(time.Microsecond),
			time.Duration(t.MaxNS).Round(time.Microsecond)); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Hists[k]
		if _, err := fmt.Fprintf(w, "hist    %-42s count=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%d\n",
			k, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max); err != nil {
			return err
		}
	}
	return nil
}

// Dump is the full -metrics-out payload: the process-wide snapshot with
// the per-scope sections inlined under "scopes". The Snapshot fields stay
// at the top level (embedded), so consumers of the pre-scope format —
// obsreport's auto-detection, older diff baselines — parse a Dump as a
// plain Snapshot and simply ignore the sections.
type Dump struct {
	Snapshot
	Scopes []ScopeSection `json:"scopes,omitempty"`
}

// WriteJSON emits the default registry plus the per-scope sections as
// indented JSON.
func WriteJSON(w io.Writer) error {
	d := Dump{Snapshot: defaultR.Snapshot(), Scopes: ScopeSections()}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText emits the default registry as text.
func WriteText(w io.Writer) error { return defaultR.WriteText(w) }

// DumpJSON writes the default registry's snapshot (with per-scope
// sections) to path atomically: a signal or crash arriving mid-flush
// leaves path absent or with its previous content, never truncated.
func DumpJSON(path string) error {
	return persist.WriteTo(path, WriteJSON)
}
