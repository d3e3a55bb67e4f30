package pebble

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
)

func TestAffinityOrderIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 15; trial++ {
		g := randomDAG(rng, 2+rng.Intn(50), 0.2)
		order, err := AffinityOrder(g, 1+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTopological(order) {
			t.Fatalf("trial %d: affinity order invalid", trial)
		}
	}
	for _, g := range []*graph.Graph{gen.FFT(5), gen.Grid2D(8, 8), gen.Strassen(4)} {
		order, err := AffinityOrder(g, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTopological(order) {
			t.Fatalf("%s: affinity order invalid", g.Name())
		}
	}
}

func TestAffinityOrderDefaultPartSize(t *testing.T) {
	g := gen.Chain(10)
	order, err := AffinityOrder(g, 0)
	if err != nil || !g.IsTopological(order) {
		t.Fatalf("default part size: %v %v", order, err)
	}
}

func TestBestOrderIncludesAffinity(t *testing.T) {
	// The reported best can never be worse than the affinity order alone.
	g := gen.FFT(5)
	M := 8
	best, _, _, err := BestOrderContext(context.Background(), g, M, Belady, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := AffinityOrder(g, 4*M)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, aff, M, Belady)
	if err != nil {
		t.Fatal(err)
	}
	if best.Total() > res.Total() {
		t.Errorf("BestOrderContext %d worse than affinity %d", best.Total(), res.Total())
	}
}
