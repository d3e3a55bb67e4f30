// Package metricname is the metric-name fixture: metric names must be
// compile-time constants matching the pkg.name_unit convention. The obs
// package here is the fix/obs stand-in.
package metricname

import (
	"context"

	"fix/obs"
)

const prefix = "metricname."

func Use(name string, reg *obs.Registry, sc *obs.Scope) {
	UseCtx(context.Background(), name)
	sc.Inc("metricname.good.total")
	sc.Inc("core." + "folded") // constant expressions fold: clean
	sc.Inc(prefix + "hits")    // named constants fold too: clean

	sc.Inc("BadName")     // want `metric name "BadName" does not match the pkg.name_unit convention`
	sc.Inc("x.")          // want `metric name "x." does not match the pkg.name_unit convention`
	sc.Inc(name)          // want `obs.Inc metric name must be a compile-time string constant`
	sc.Observe(name, 1.0) // want `obs.Observe metric name must be a compile-time string constant`

	obs.Default().Observe("metricname.latency_ns", 1.0)
	obs.Default().Inc("Bad Name") // want `metric name "Bad Name" does not match the pkg.name_unit convention`
	reg.Inc(name)                 // want `obs.Inc metric name must be a compile-time string constant`

	obs.Probe("metricname.sweep_probe") // probe names share the convention: clean
	obs.Probe("linalg." + "lanczos")    // constant expressions fold: clean

	obs.Probe("NotAProbe") // want `metric name "NotAProbe" does not match the pkg.name_unit convention`
	obs.Probe(name)        // want `obs.Probe metric name must be a compile-time string constant`
}

// UseFamily covers the bounded-family carve-out: a dynamic suffix under a
// declared family prefix is clean; anything else dynamic is not.
func UseFamily(kind string, reg *obs.Registry, sc *obs.Scope) {
	sc.Inc("metricname.family." + kind)       // declared family: clean
	reg.Inc("metricname.family." + kind)      // the Registry gets the carve-out too: clean
	sc.Inc("metricname.other." + kind)        // want `obs.Inc metric name must be a compile-time string constant`
	sc.Inc("metricname.family" + kind)        // want `obs.Inc metric name must be a compile-time string constant`
	sc.Inc(kind + "metricname.family.")       // want `obs.Inc metric name must be a compile-time string constant`
	sc.Inc("metricname.family." + kind + "x") // left-leaning fold still finds the family: clean
}

// UseCtx covers the context-scoped variants: the metric name moves to
// argument index 1, after the ctx.
func UseCtx(ctx context.Context, name string) {
	obs.IncCtx(ctx, "metricname.good.total")
	obs.AddCtx(ctx, "core."+"folded", 1) // constant expressions fold: clean
	obs.ObserveCtx(ctx, prefix+"wall_ns", 1.0)

	obs.IncCtx(ctx, "BadCtxName")             // want `metric name "BadCtxName" does not match the pkg.name_unit convention`
	obs.AddCtx(ctx, name, 1)                  // want `obs.AddCtx metric name must be a compile-time string constant`
	obs.ObserveCtx(ctx, name, 1.0)            // want `obs.ObserveCtx metric name must be a compile-time string constant`
	obs.StartSpanCtx(ctx, name)               // span names are free-form: clean
	obs.Probe("metricname.s").IterCtx(ctx, 7) // IterCtx's leading args are ctx and an iteration: clean
}
