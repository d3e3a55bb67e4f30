package redblue

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/pebble"
)

func randomDAG(rng *rand.Rand, n int, p float64) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	b.AddVertices(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.MustEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestChainIsFree(t *testing.T) {
	for _, M := range []int{1, 2, 4} {
		res, err := OptimalContext(context.Background(), gen.Chain(8), M, Options{})
		if err != nil {
			t.Fatalf("M=%d: %v", M, err)
		}
		if res.IO != 0 {
			t.Errorf("M=%d: chain J*=%d, want 0", M, res.IO)
		}
	}
}

func TestDiamondExact(t *testing.T) {
	b := graph.NewBuilder(4, 4)
	b.AddVertices(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.MustEdge(e[0], e[1])
	}
	g := b.MustBuild()
	res, err := OptimalContext(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != 0 {
		t.Errorf("diamond at M=2: J*=%d, want 0", res.IO)
	}
}

func TestValidation(t *testing.T) {
	g := gen.Chain(3)
	if _, err := OptimalContext(context.Background(), g, 0, Options{}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := OptimalContext(context.Background(), gen.FFT(2), 1, Options{}); err == nil {
		t.Error("in-degree 2 at M=1 accepted")
	}
	if _, err := OptimalContext(context.Background(), gen.BellmanHeldKarp(5), 8, Options{}); err == nil {
		t.Error("32-vertex graph should exceed the 20-vertex limit")
	}
	empty := graph.NewBuilder(0, 0).MustBuild()
	if res, err := OptimalContext(context.Background(), empty, 1, Options{}); err != nil || res.IO != 0 {
		t.Errorf("empty graph: %v, %v", res, err)
	}
}

func TestStateCapAborts(t *testing.T) {
	g := gen.FFT(2) // 12 vertices
	if _, err := OptimalContext(context.Background(), g, 2, Options{MaxStates: 10}); err == nil {
		t.Error("state cap not enforced")
	}
}

func TestOptimalAtMostSimulated(t *testing.T) {
	// J* cannot exceed any simulated schedule's I/O, and the best
	// exhaustive schedule under Belady is usually exactly optimal on tiny
	// graphs — J* must be ≤ it in all cases.
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 12; trial++ {
		g := randomDAG(rng, 4+rng.Intn(7), 0.35)
		M := g.MaxInDeg() + rng.Intn(2)
		if M < 2 {
			M = 2
		}
		exact, err := OptimalContext(context.Background(), g, M, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sim, _, err := pebble.ExhaustiveBestContext(context.Background(), g, M, pebble.Belady, 50000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if exact.IO > sim.Total() {
			t.Errorf("trial %d: exact J*=%d exceeds simulated %d", trial, exact.IO, sim.Total())
		}
	}
}

func TestFFT2Exact(t *testing.T) {
	// 4-point FFT (12 vertices) at M=2: non-trivial I/O is forced.
	g := gen.FFT(2)
	exact, err := OptimalContext(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.IO <= 0 {
		t.Errorf("FFT(2) at M=2 should need I/O, got %d", exact.IO)
	}
	// More memory can only help.
	exact4, err := OptimalContext(context.Background(), g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact4.IO > exact.IO {
		t.Errorf("J* increased with memory: M=2 %d, M=4 %d", exact.IO, exact4.IO)
	}
}

func TestInDegreeEqualsMFeasible(t *testing.T) {
	// Vertex with in-degree M: the overwrite move must make it solvable.
	b := graph.NewBuilder(3, 2)
	b.AddVertices(3)
	b.MustEdge(0, 2)
	b.MustEdge(1, 2)
	g := b.MustBuild()
	res, err := OptimalContext(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != 0 {
		t.Errorf("J*=%d, want 0", res.IO)
	}
}
