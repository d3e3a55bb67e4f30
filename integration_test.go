package graphio_test

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/mincut"
	"graphio/internal/pebble"
	"graphio/internal/redblue"
)

// upperBound returns the best simulated I/O found for g at memory M:
// exhaustive over all topological orders when the graph is tiny, heuristic
// order search otherwise. Any lower bound exceeding this is a bug.
func upperBound(t *testing.T, g *graph.Graph, M int) int {
	t.Helper()
	if res, _, err := pebble.ExhaustiveBestContext(context.Background(), g, M, pebble.Belady, 20000); err == nil {
		return res.Total()
	}
	res, _, _, err := pebble.BestOrderContext(context.Background(), g, M, pebble.Belady, 30, 1)
	if err != nil {
		t.Fatalf("no feasible order for %s at M=%d: %v", g.Name(), M, err)
	}
	return res.Total()
}

// checkSandwich asserts lower ≤ upper for every bound the module produces.
func checkSandwich(t *testing.T, g *graph.Graph, M int) {
	t.Helper()
	if g.MaxInDeg() > M {
		return // infeasible point; the paper drops these too
	}
	ub := upperBound(t, g, M)
	for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
		res, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: M, Laplacian: kind})
		if err != nil {
			t.Fatalf("%s M=%d: %v", g.Name(), M, err)
		}
		if res.Bound > float64(ub)+1e-6 {
			t.Errorf("%s M=%d kind=%v: spectral lower bound %.3f exceeds simulated upper bound %d",
				g.Name(), M, kind, res.Bound, ub)
		}
	}
	mc, err := mincut.ConvexMinCutBoundContext(context.Background(), g, mincut.Options{M: M})
	if err != nil {
		t.Fatalf("%s M=%d: %v", g.Name(), M, err)
	}
	if mc.Bound > float64(ub)+1e-6 {
		t.Errorf("%s M=%d: min-cut lower bound %.3f exceeds simulated upper bound %d",
			g.Name(), M, mc.Bound, ub)
	}
}

func TestSandwichStructuredGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		gen.InnerProduct(2),
		gen.InnerProduct(4),
		gen.FFT(2),
		gen.FFT(3),
		gen.FFT(4),
		gen.NaiveMatMul(2),
		gen.Strassen(2),
		gen.BellmanHeldKarp(3),
		gen.BellmanHeldKarp(4),
		gen.Grid2D(4, 4),
		gen.BinaryTreeReduce(3),
		gen.Chain(10),
	}
	for _, g := range graphs {
		for _, M := range []int{2, 4, 8} {
			checkSandwich(t, g, M)
		}
	}
}

func TestSandwichRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(25)
		g := gen.ErdosRenyiDAG(n, 0.15+0.3*rng.Float64(), rng.Int63())
		M := 2 + rng.Intn(6)
		checkSandwich(t, g, M)
	}
	for trial := 0; trial < 8; trial++ {
		g := gen.RandomLayeredDAG(2+rng.Intn(4), 2+rng.Intn(6), 1+rng.Intn(3), rng.Int63())
		checkSandwich(t, g, 3+rng.Intn(4))
	}
}

func TestClosedFormsBelowSimulatedUpperBounds(t *testing.T) {
	// §5.1/§5.2 closed forms are lower bounds on J*, so they must sit
	// below any simulated schedule too.
	for _, l := range []int{3, 4} {
		for _, M := range []int{2, 4} {
			gFFT := gen.FFT(l)
			ubF := upperBound(t, gFFT, M)
			if cf, _ := analytic.FFTClosedForm(l, M); cf > float64(ubF)+1e-6 {
				t.Errorf("FFT l=%d M=%d: closed form %.3f > simulated %d", l, M, cf, ubF)
			}
			gH := gen.BellmanHeldKarp(l)
			if gH.MaxInDeg() > M {
				continue
			}
			ubH := upperBound(t, gH, M)
			if cf, _ := analytic.HypercubeBoundOptimal(l, M); cf > float64(ubH)+1e-6 {
				t.Errorf("BHK l=%d M=%d: closed form %.3f > simulated %d", l, M, cf, ubH)
			}
		}
	}
}

func TestExactSandwich(t *testing.T) {
	// On tiny graphs the red-blue solver gives the *true* J*, so the chain
	// lower ≤ J* ≤ simulated-best must hold with the real optimum in the
	// middle — the strongest validation this module can run.
	rng := rand.New(rand.NewSource(99))
	graphs := []*graph.Graph{
		gen.InnerProduct(2),
		gen.InnerProduct(3),
		gen.FFT(2),
		gen.Grid2D(3, 4),
		gen.BinaryTreeReduce(3),
	}
	for trial := 0; trial < 8; trial++ {
		graphs = append(graphs, gen.ErdosRenyiDAG(5+rng.Intn(8), 0.3, rng.Int63()))
	}
	for _, g := range graphs {
		for _, M := range []int{2, 3} {
			if g.MaxInDeg() > M {
				continue
			}
			exact, err := redblue.OptimalContext(context.Background(), g, M, redblue.Options{})
			if err != nil {
				t.Fatalf("%s M=%d: %v", g.Name(), M, err)
			}
			for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
				res, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: M, Laplacian: kind})
				if err != nil {
					t.Fatal(err)
				}
				if res.Bound > float64(exact.IO)+1e-6 {
					t.Errorf("%s M=%d: spectral %.2f exceeds exact J* %d", g.Name(), M, res.Bound, exact.IO)
				}
			}
			mc, err := mincut.ConvexMinCutBoundContext(context.Background(), g, mincut.Options{M: M})
			if err != nil {
				t.Fatal(err)
			}
			if mc.Bound > float64(exact.IO)+1e-6 {
				t.Errorf("%s M=%d: min-cut %.2f exceeds exact J* %d", g.Name(), M, mc.Bound, exact.IO)
			}
			if sim, _, err := pebble.ExhaustiveBestContext(context.Background(), g, M, pebble.Belady, 20000); err == nil {
				if exact.IO > sim.Total() {
					t.Errorf("%s M=%d: exact J* %d above simulated %d", g.Name(), M, exact.IO, sim.Total())
				}
			}
		}
	}
}

func TestParallelBoundBelowSerialUpperBound(t *testing.T) {
	// Theorem 6 bounds the I/O of the busiest of p processors, which can
	// never exceed a single-processor schedule's total I/O.
	g := gen.FFT(4)
	ub := upperBound(t, g, 4)
	for _, p := range []int{2, 4} {
		res, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 4, Processors: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound > float64(ub)+1e-6 {
			t.Errorf("p=%d: parallel bound %.3f exceeds serial upper bound %d", p, res.Bound, ub)
		}
	}
}
