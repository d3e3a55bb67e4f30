package pebble

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
)

func TestFrontierOrderIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 25; trial++ {
		g := randomDAG(rng, 2+rng.Intn(40), 0.25)
		order := FrontierOrder(g)
		if !g.IsTopological(order) {
			t.Fatalf("trial %d: frontier order invalid", trial)
		}
	}
	for _, g := range []*graph.Graph{
		gen.FFT(4), gen.BellmanHeldKarp(4), gen.Grid2D(5, 7), gen.Strassen(4),
	} {
		if !g.IsTopological(FrontierOrder(g)) {
			t.Fatalf("%s: frontier order invalid", g.Name())
		}
	}
}

func TestFrontierOrderBeatsKahnOnGrid(t *testing.T) {
	// On square stencils row-major Kahn is already wavefront-optimal, so
	// the frontier scheduler ties it; the invariant worth pinning is that
	// it never loses (its wins show up on butterfly-shaped graphs — see
	// ExampleFrontierOrder).
	g := gen.Grid2D(16, 16)
	M := 8
	kahn, err := Simulate(g, g.TopoOrder(), M, Belady)
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := Simulate(g, FrontierOrder(g), M, Belady)
	if err != nil {
		t.Fatal(err)
	}
	if frontier.Total() > kahn.Total() {
		t.Errorf("frontier order %d I/Os worse than kahn %d", frontier.Total(), kahn.Total())
	}
}

func TestFrontierOrderOnChainIsPerfect(t *testing.T) {
	g := gen.Chain(50)
	res, err := Simulate(g, FrontierOrder(g), 2, Belady)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 0 {
		t.Errorf("chain under frontier order incurred %d I/Os", res.Total())
	}
}

func TestFrontierOrderEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, 0).MustBuild()
	if order := FrontierOrder(g); len(order) != 0 {
		t.Errorf("empty graph order: %v", order)
	}
}

func TestBestOrderIncludesFrontier(t *testing.T) {
	// BestOrderContext must consider the frontier heuristic; on the grid it
	// should usually be the winner, but at minimum the reported best can
	// never be worse than the frontier order alone.
	g := gen.Grid2D(12, 12)
	M := 6
	best, _, _, err := BestOrderContext(context.Background(), g, M, Belady, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Simulate(g, FrontierOrder(g), M, Belady)
	if err != nil {
		t.Fatal(err)
	}
	if best.Total() > fr.Total() {
		t.Errorf("BestOrderContext %d worse than frontier %d", best.Total(), fr.Total())
	}
}
