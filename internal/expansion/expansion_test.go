package expansion

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
)

func randomConnectedDAG(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	b.AddVertices(n)
	for v := 1; v < n; v++ {
		b.MustEdge(rng.Intn(v), v) // random spanning arborescence: connected
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.2 {
				b.MustEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestExactKnownGraphs(t *testing.T) {
	// Chain of n: the best cut takes half the path, boundary 1: h = 1/⌊n/2⌋.
	h, err := Exact(gen.Chain(8))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.25) > 1e-12 {
		t.Errorf("chain-8: h=%g want 0.25", h)
	}
	// Complete DAG on 6 vertices (ER p=1): S of size 3 has boundary 3·3.
	h, err = Exact(gen.ErdosRenyiDAG(6, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-3) > 1e-12 {
		t.Errorf("K6: h=%g want 3", h)
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := Exact(graph.NewBuilder(0, 0).MustBuild()); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Exact(gen.FFT(3)); err == nil {
		t.Error("32-vertex graph should exceed the enumeration limit")
	}
}

func TestCheegerSandwich(t *testing.T) {
	// λ2/2 ≤ h(G) ≤ sweep cut ≤ sqrt(2·dmax·λ2) on small connected graphs.
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedDAG(rng, 6+rng.Intn(12))
		hExact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := Lambda2(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := CheegerInterval(l2, g.MaxDeg())
		if hExact < lo-1e-8 {
			t.Errorf("trial %d: h=%g below Cheeger lower %g", trial, hExact, lo)
		}
		if hExact > hi+1e-8 {
			t.Errorf("trial %d: h=%g above Cheeger upper %g", trial, hExact, hi)
		}
		sweep, err := SweepCut(g)
		if err != nil {
			t.Fatal(err)
		}
		if sweep < hExact-1e-8 {
			t.Errorf("trial %d: sweep cut %g below exact %g", trial, sweep, hExact)
		}
		if sweep > hi+1e-6 {
			t.Errorf("trial %d: sweep cut %g above Cheeger upper %g", trial, sweep, hi)
		}
	}
}

func TestSweepCutOnChainFindsMiddle(t *testing.T) {
	sweep, err := SweepCut(gen.Chain(32))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sweep-1.0/16) > 1e-9 {
		t.Errorf("chain sweep cut %g, want 1/16", sweep)
	}
}

func TestLambda2LargeGraphUsesIterativeSolver(t *testing.T) {
	g := gen.FFT(7) // 1024 vertices: above the dense path
	l2, err := Lambda2(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if l2 <= 0 || l2 > 1 {
		t.Errorf("butterfly λ2=%g out of plausible range", l2)
	}
}

func TestSweepCutValidation(t *testing.T) {
	if _, err := SweepCut(gen.Chain(1)); err == nil {
		t.Error("single vertex accepted")
	}
	b := graph.NewBuilder(3, 0)
	b.AddVertices(3)
	if _, err := SweepCut(b.MustBuild()); err == nil {
		t.Error("edgeless graph accepted")
	}
}

// Past 512 vertices Lambda2 takes the Chebyshev solver, which stops on a
// cancelled ctx with its error.
func TestLambda2Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Lambda2(ctx, gen.Grid2D(24, 24)); !errors.Is(err, context.Canceled) {
		t.Errorf("Lambda2 under a cancelled ctx = %v, want context.Canceled", err)
	}
}
