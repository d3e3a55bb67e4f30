package main

import (
	"flag"
	"fmt"
	"time"

	"graphio/internal/core"
	"graphio/internal/laplacian"
	"graphio/internal/mincut"
	"graphio/internal/obs"
	"graphio/internal/pebble"
	"graphio/internal/redblue"
)

// cmdAnalyze runs the whole toolbox on one graph and prints a combined
// report: spectral bounds (both Laplacians, serial and parallel), the
// convex min-cut baseline, a concrete-order partition certificate
// (Theorem 2/3), and a simulated upper bound, bracketing J*.
func cmdAnalyze(args []string) (err error) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	load := graphFlags(fs)
	M := fs.Int("M", 16, "fast memory size in elements")
	maxK := fs.Int("k", 100, "eigenvalues computed / top of the k sweep")
	samples := fs.Int("samples", 20, "random orders for the upper-bound search")
	mcTimeout := fs.Duration("mincut-timeout", 30*time.Second, "time box for the baseline sweep")
	ofl := obs.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error
	if err := ofl.Begin(); err != nil {
		return err
	}
	defer finishObs(ofl, &err)
	ctx := ofl.Context()
	g, err := load()
	if err != nil {
		return err
	}
	fmt.Printf("graph        %s: n=%d, m=%d, sources=%d, sinks=%d\n",
		g.Name(), g.N(), g.M(), len(g.Sources()), len(g.Sinks()))
	fmt.Printf("degrees      max in=%d, max out=%d\n", g.MaxInDeg(), g.MaxOutDeg())
	if g.MaxInDeg() > *M {
		return fmt.Errorf("max in-degree %d exceeds M=%d: no evaluation order is feasible", g.MaxInDeg(), *M)
	}

	s4, err := core.SolveSpectrum(ctx, g, core.Options{MaxK: *maxK})
	if err != nil {
		return err
	}
	s5, err := core.SolveSpectrum(ctx, g, core.Options{MaxK: *maxK, Laplacian: laplacian.Original})
	if err != nil {
		return err
	}
	t4, t5 := s4.At(ctx, *M, 1), s5.At(ctx, *M, 1)
	fmt.Printf("spectral     Theorem 4: %.2f (k=%d)   Theorem 5: %.2f (k=%d)   [solver %v, h=%d]\n",
		t4.Bound, t4.BestK, t5.Bound, t5.BestK, t4.SolverUsed, len(t4.Eigenvalues))
	for _, p := range []int{2, 4} {
		fmt.Printf("parallel     p=%d (Theorem 6): %.2f\n", p, s4.At(ctx, *M, p).Bound)
	}

	mc, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: *M, Timeout: *mcTimeout})
	if err != nil {
		return err
	}
	note := ""
	if mc.TimedOut {
		note = " (timed out: bound may be below the baseline's maximum)"
	}
	fmt.Printf("min-cut      %.2f, C(v*)=%d at vertex %d, %d flows in %v%s\n",
		mc.Bound, mc.BestCut, mc.BestVertex, mc.Evaluated, mc.Elapsed.Round(time.Millisecond), note)

	ub, order, name, err := pebble.BestOrderContext(ctx, g, *M, pebble.Belady, *samples, 1)
	if err != nil {
		return err
	}
	fmt.Printf("simulated    %d I/Os (reads=%d, writes=%d) with the %q order under Belady\n",
		ub.Total(), ub.Reads, ub.Writes, name)
	pc, pk, err := core.BestPartitionBound(g, order, *maxK, *M, laplacian.OutDegreeNormalized)
	if err != nil {
		return err
	}
	fmt.Printf("certificate  Lemma 1 partition bound for that order: %.2f (k=%d)\n", pc, pk)

	lower := t4.Bound
	if t5.Bound > lower {
		lower = t5.Bound
	}
	if mc.Bound > lower {
		lower = mc.Bound
	}
	if g.N() <= 16 {
		if exact, err := redblue.OptimalContext(ctx, g, *M, redblue.Options{}); err == nil {
			fmt.Printf("exact        J* = %d (red-blue state search, %d states)\n",
				exact.IO, exact.States)
			fmt.Printf("\nJ* bracket:  %.2f ≤ J* = %d ≤ %d   (M=%d)\n",
				lower, exact.IO, ub.Total(), *M)
			return nil
		}
	}
	fmt.Printf("\nJ* bracket:  %.2f ≤ J* ≤ %d   (M=%d)\n", lower, ub.Total(), *M)
	return nil
}
