// Tracer example: extract the computation graph of a user-written
// numerical routine — here, one step of a Jacobi-style 1-D stencil
// relaxation followed by a dot-product convergence check — and analyze its
// I/O. This mirrors the paper's §6.1 workflow: run the program once under
// the tracer, get a DAG, and bound any execution of it.
//
//	go run ./examples/tracer [-size 64] [-M 8] [-sweeps 3]
package main

import (
	"context"
	"flag"
	"fmt"

	"graphio/examples/internal/exutil"
	"graphio/internal/core"
	"graphio/internal/mincut"
	"graphio/internal/pebble"
	"graphio/internal/trace"
)

// jacobiSweep records one relaxation sweep: u'[i] = (u[i-1] + u[i+1]) / 2,
// expressed with the tracer's generic Op for the halving.
func jacobiSweep(tr *trace.Tracer, u []trace.Value) []trace.Value {
	next := make([]trace.Value, len(u))
	for i := range u {
		switch i {
		case 0:
			next[i] = u[i] // boundary held fixed
		case len(u) - 1:
			next[i] = u[i]
		default:
			next[i] = tr.Op("avg", u[i-1], u[i+1])
		}
	}
	return next
}

func main() {
	size := flag.Int("size", 64, "stencil points")
	M := flag.Int("M", 8, "fast memory size")
	sweeps := flag.Int("sweeps", 3, "relaxation sweeps to trace")
	flag.Parse()

	ctx := context.Background()

	tr := trace.New()
	u := tr.Inputs("u", *size)
	v := u
	for s := 0; s < *sweeps; s++ {
		v = jacobiSweep(tr, v)
	}
	// Convergence check: residual = Σ (v_i − u_i)².
	diffs := make([]trace.Value, *size)
	for i := range diffs {
		d := v[i].Sub(u[i])
		diffs[i] = d.Mul(d)
	}
	trace.ReduceAdd(diffs)

	g := tr.MustGraph(fmt.Sprintf("jacobi-%d-x%d", *size, *sweeps))
	fmt.Printf("traced %d operations, %d dependencies (max in-degree %d)\n",
		g.N(), g.M(), g.MaxInDeg())

	// Lower bounds: spectral and the convex min-cut baseline.
	spec, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M})
	exutil.Check(err, "spectral bound for the traced stencil")
	mc, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: *M})
	exutil.Check(err, "convex min-cut baseline for the traced stencil")
	fmt.Printf("lower bounds at M=%d: spectral %.2f, convex min-cut %.2f\n",
		*M, spec.Bound, mc.Bound)

	// How much does the schedule matter in practice? Compare eviction
	// policies and order heuristics under the simulator.
	orders := map[string][]int{
		"kahn": g.TopoOrder(),
		"dfs":  g.DFSTopoOrder(),
	}
	for name, order := range orders {
		lru, err := pebble.Simulate(g, order, *M, pebble.LRU)
		exutil.Check(err, fmt.Sprintf("simulating the %s order under LRU", name))
		bel, err := pebble.Simulate(g, order, *M, pebble.Belady)
		exutil.Check(err, fmt.Sprintf("simulating the %s order under Belady", name))
		fmt.Printf("order %-5s: LRU %5d I/Os, Belady %5d I/Os\n", name, lru.Total(), bel.Total())
	}
	best, _, name, err := pebble.BestOrderContext(ctx, g, *M, pebble.Belady, 40, 1)
	exutil.Check(err, "searching evaluation orders for the traced stencil")
	fmt.Printf("best schedule found: %d I/Os (%s)\n", best.Total(), name)
	fmt.Printf("J* sandwiched: %.2f ≤ J* ≤ %d\n", spec.Bound, best.Total())
}
