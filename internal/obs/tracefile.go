package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/persist"
)

// The trace collector records completed spans as events and serializes
// them to the Chrome trace-event JSON format, which Perfetto and
// chrome://tracing open directly. It is independent of the metrics
// registry: -trace-out enables it alone; -debug-addr enables only the
// open-span *tracking* half so /progress can show what a long sweep is
// doing without buffering a full trace.
//
// Collection is bounded: after maxTraceEvents completed spans, further
// events are counted as dropped rather than buffered, so a multi-hour
// sweep cannot exhaust memory through telemetry.
const maxTraceEvents = 1 << 20

// TraceEvent is one completed span, ready for serialization. Ts and Dur
// are nanoseconds; Ts is relative to the trace start.
type TraceEvent struct {
	Name     string
	TsNS     int64
	DurNS    int64
	Gid      int64
	ID       uint64
	ParentID uint64 // 0 = root span
	Keys     []string
	Vals     []string
}

// openSpan is the immutable-at-start info /progress snapshots. Span fields
// (SetInt etc.) are deliberately excluded: they are appended without a lock
// by the owning goroutine and must not be read concurrently.
type openSpan struct {
	name  string
	start time.Time
	gid   int64
}

var tracer struct {
	record atomic.Bool // buffer completed spans for -trace-out
	track  atomic.Bool // maintain the open-span table (record or debug server)
	debug  atomic.Int32
	nextID atomic.Uint64

	mu      sync.Mutex
	start   time.Time
	events  []TraceEvent
	open    map[uint64]openSpan
	dropped int64
}

// StartTrace begins buffering completed spans (idempotent).
func StartTrace() {
	tracer.mu.Lock()
	if tracer.open == nil {
		tracer.open = make(map[uint64]openSpan)
	}
	if tracer.start.IsZero() {
		tracer.start = time.Now()
	}
	tracer.mu.Unlock()
	tracer.record.Store(true)
	tracer.track.Store(true)
}

// StopTrace stops buffering completed spans. Already-buffered events stay
// available to WriteTrace until ResetTrace.
func StopTrace() {
	tracer.record.Store(false)
	tracer.track.Store(tracer.debug.Load() > 0)
}

// TraceEnabled reports whether completed spans are being buffered.
func TraceEnabled() bool { return tracer.record.Load() }

// ResetTrace drops all buffered and open spans (tests, mainly).
func ResetTrace() {
	tracer.mu.Lock()
	tracer.events = nil
	tracer.open = make(map[uint64]openSpan)
	tracer.start = time.Time{}
	tracer.dropped = 0
	tracer.mu.Unlock()
}

// trackingSpans reports whether spans need trace bookkeeping at all.
func trackingSpans() bool { return tracer.track.Load() }

// debugTrackRef counts debug servers that need the open-span table; the
// table stays on while either tracing or at least one server is active.
func debugTrackRef(delta int32) {
	n := tracer.debug.Add(delta)
	tracer.mu.Lock()
	if tracer.open == nil {
		tracer.open = make(map[uint64]openSpan)
	}
	if tracer.start.IsZero() {
		tracer.start = time.Now()
	}
	tracer.mu.Unlock()
	tracer.track.Store(tracer.record.Load() || n > 0)
}

// beginTraceSpan registers a newly started span and returns its trace id.
func beginTraceSpan(name string, start time.Time, gid int64) uint64 {
	id := tracer.nextID.Add(1)
	tracer.mu.Lock()
	if tracer.open == nil {
		tracer.open = make(map[uint64]openSpan)
	}
	tracer.open[id] = openSpan{name: name, start: start, gid: gid}
	tracer.mu.Unlock()
	return id
}

// endTraceSpan unregisters span id and, when recording, buffers its event.
func endTraceSpan(s *Span, end time.Time) {
	tracer.mu.Lock()
	delete(tracer.open, s.traceID)
	if !tracer.record.Load() {
		tracer.mu.Unlock()
		return
	}
	if len(tracer.events) >= maxTraceEvents {
		tracer.dropped++
		tracer.mu.Unlock()
		return
	}
	ev := TraceEvent{
		Name:     s.name,
		TsNS:     s.start.Sub(tracer.start).Nanoseconds(),
		DurNS:    end.Sub(s.start).Nanoseconds(),
		Gid:      s.gid,
		ID:       s.traceID,
		ParentID: s.parentID,
	}
	if len(s.keys) > 0 {
		ev.Keys = append([]string(nil), s.keys...)
		ev.Vals = append([]string(nil), s.vals...)
	}
	tracer.events = append(tracer.events, ev)
	tracer.mu.Unlock()
}

// OpenSpanInfo is one still-running span, as reported by /progress.
type OpenSpanInfo struct {
	Name      string `json:"name"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Goroutine int64  `json:"goroutine"`
}

// OpenSpans returns the currently open spans, oldest first.
func OpenSpans() []OpenSpanInfo {
	now := time.Now()
	tracer.mu.Lock()
	infos := make([]OpenSpanInfo, 0, len(tracer.open))
	starts := make([]time.Time, 0, len(tracer.open))
	for _, sp := range tracer.open {
		infos = append(infos, OpenSpanInfo{Name: sp.name, ElapsedNS: now.Sub(sp.start).Nanoseconds(), Goroutine: sp.gid})
		starts = append(starts, sp.start)
	}
	tracer.mu.Unlock()
	sort.Sort(&openByStart{infos, starts})
	return infos
}

type openByStart struct {
	infos  []OpenSpanInfo
	starts []time.Time
}

func (o *openByStart) Len() int           { return len(o.infos) }
func (o *openByStart) Less(i, j int) bool { return o.starts[i].Before(o.starts[j]) }
func (o *openByStart) Swap(i, j int) {
	o.infos[i], o.infos[j] = o.infos[j], o.infos[i]
	o.starts[i], o.starts[j] = o.starts[j], o.starts[i]
}

// TraceStats reports the collector's buffered and dropped event counts.
func TraceStats() (buffered int, dropped int64) {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	return len(tracer.events), tracer.dropped
}

// WriteTrace serializes the buffered events as Chrome trace-event JSON.
func WriteTrace(w io.Writer) error {
	tracer.mu.Lock()
	events := append([]TraceEvent(nil), tracer.events...)
	dropped := tracer.dropped
	tracer.mu.Unlock()
	if dropped > 0 {
		logf("trace: %d spans dropped past the %d-event buffer", dropped, maxTraceEvents)
	}
	return writeTraceEvents(w, events)
}

// DumpTrace writes the buffered trace to path atomically (temp file +
// rename), so an interrupt landing mid-flush cannot truncate an existing
// trace or leave a half-written one.
func DumpTrace(path string) error {
	return persist.WriteTo(path, WriteTrace)
}

// writeTraceEvents emits the JSON Object Format of the Chrome trace-event
// spec: {"traceEvents":[...]} with one complete ("ph":"X") event per span.
// Fields are written by hand, in a fixed order, so the output is stable
// for golden-file testing and diffing across runs.
func writeTraceEvents(w io.Writer, events []TraceEvent) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":["); err != nil {
		return err
	}
	for i := range events {
		e := &events[i]
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s\n{\"name\":%s,\"cat\":\"obs\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{",
			sep, quoteJSON(e.Name), microseconds(e.TsNS), microseconds(e.DurNS), e.Gid); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "\"span_id\":%d,\"parent_id\":%d", e.ID, e.ParentID); err != nil {
			return err
		}
		for j, k := range e.Keys {
			if _, err := fmt.Fprintf(w, ",%s:%s", quoteJSON(k), quoteJSON(e.Vals[j])); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

// microseconds renders ns as a decimal microsecond value with nanosecond
// precision ("1234.567"), avoiding float formatting instability.
func microseconds(ns int64) string {
	if ns < 0 {
		ns = 0
	}
	return strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
}

// quoteJSON escapes s as a JSON string literal. strconv.Quote would be
// cheaper but emits Go \x escapes that are invalid JSON.
func quoteJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). Only called on span start while tracing —
// microseconds of cost against a phase-scale span.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	s = s[len(prefix):]
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
