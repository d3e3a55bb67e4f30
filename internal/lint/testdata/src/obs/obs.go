// Package obs is a miniature stand-in for graphio/internal/obs used by the
// metric-name and scoped-obs fixtures: same entry-point names, no behavior.
package obs

import "context"

type Registry struct{}

func (*Registry) Inc(name string)                {}
func (*Registry) Observe(name string, v float64) {}

var def Registry

func Default() *Registry { return &def }

func AddCtx(ctx context.Context, name string, v int64)       {}
func IncCtx(ctx context.Context, name string)                {}
func ObserveCtx(ctx context.Context, name string, v float64) {}

// StartSpanCtx's name is free-form: not a metric entry point.
func StartSpanCtx(ctx context.Context, name string) {}

func LogCtx(ctx context.Context, format string, args ...any) {}

// Scope mirrors the per-task telemetry scope; its emission methods are
// scope-aware by construction, and a nil *Scope is the process itself.
type Scope struct{}

func (*Scope) Inc(name string)                            {}
func (*Scope) Observe(name string, v float64)             {}
func (*Scope) ObserveHistDuration(name string, dns int64) {}

// ProbeRef mirrors the solver event-probe handle. IterCtx's leading
// arguments are a context and an iteration number, not a metric name, so
// IterCtx is deliberately NOT a metric entry point.
type ProbeRef struct{}

func Probe(name string) ProbeRef { return ProbeRef{} }

func (ProbeRef) IterCtx(ctx context.Context, iter int64) {}
