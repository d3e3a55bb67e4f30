package obs

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"time"
)

// Span is one timed phase. Spans nest by name (Child joins with "/"); a
// nil *Span is valid and inert, which is what StartSpanCtx returns when the
// registry, the log sink and the trace collector are all off — call
// sites need no guards.
type Span struct {
	name     string
	start    time.Time
	keys     []string
	vals     []string
	scope    *Scope // nil when the span is unattributed
	traceID  uint64 // 0 when the trace collector is off
	parentID uint64
	gid      int64
}

// startSpan opens an unattributed span. On End the span's wall time lands
// in the timer "span.<name>", the trace collector buffers it when tracing
// is on, and, when a log sink is set, one record is emitted with the
// recorded fields.
func startSpan(name string) *Span {
	if !enabled.Load() && !logOn.Load() && !trackingSpans() {
		return nil
	}
	s := &Span{name: name, start: time.Now()}
	if trackingSpans() {
		s.gid = goid()
		s.traceID = beginTraceSpan(s.name, s.start, s.gid)
	}
	return s
}

// StartSpanCtx opens a span attributed to ctx's scope: on End the wall
// time also lands in the scope chain's registries, the scope's open-span
// gauge tracks it, and the log record carries the correlation ID. With no
// scope on ctx the span is unattributed.
func StartSpanCtx(ctx context.Context, name string) *Span {
	s := startSpan(name)
	if s == nil {
		return nil
	}
	if sc := FromContext(ctx); sc != nil {
		s.scope = sc
		sc.openSpans.Add(1)
	}
	return s
}

// Child opens a nested span named "<parent>/<name>", inheriting the
// parent's scope attribution.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return startSpan(name)
	}
	c := &Span{name: s.name + "/" + name, start: time.Now(), scope: s.scope, parentID: s.traceID}
	if c.scope != nil {
		c.scope.openSpans.Add(1)
	}
	if trackingSpans() {
		c.gid = goid()
		c.traceID = beginTraceSpan(c.name, c.start, c.gid)
	}
	return c
}

// SetInt records an integer field.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.keys = append(s.keys, key)
	s.vals = append(s.vals, strconv.FormatInt(v, 10))
}

// SetFloat records a float field.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.keys = append(s.keys, key)
	s.vals = append(s.vals, strconv.FormatFloat(v, 'g', 6, 64))
}

// SetStr records a string field.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.keys = append(s.keys, key)
	s.vals = append(s.vals, v)
}

// Elapsed returns the time since the span started (0 on a nil span).
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// End closes the span, records its duration (into the scope chain when
// attributed, and always into the default registry), emits the log
// record, and returns the duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	end := time.Now()
	d := end.Sub(s.start)
	if s.traceID != 0 {
		endTraceSpan(s, end)
	}
	if s.scope != nil {
		s.scope.openSpans.Add(-1)
	}
	if enabled.Load() {
		for c := s.scope; c != nil; c = c.parent {
			c.reg.Observe("span."+s.name, d)
		}
		defaultR.Observe("span."+s.name, d)
	}
	if logOn.Load() {
		attrs := make([]slog.Attr, 0, len(s.keys)+2)
		for i, k := range s.keys {
			attrs = append(attrs, slog.String(k, s.vals[i]))
		}
		if s.scope != nil {
			attrs = append(attrs, slog.String("scope", s.scope.path), slog.String("scope_id", s.scope.id))
		}
		logRecord(fmt.Sprintf("%-36s %12v", s.name, d.Round(time.Microsecond)), attrs)
	}
	return d
}
