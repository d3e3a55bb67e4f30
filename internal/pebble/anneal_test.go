package pebble

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/gen"
)

func TestAnnealNeverWorseAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 8; trial++ {
		g := randomDAG(rng, 8+rng.Intn(20), 0.3)
		M := g.MaxInDeg() + 1
		start := g.TopoOrder()
		startRes, err := Simulate(g, start, M, Belady)
		if err != nil {
			t.Fatal(err)
		}
		order, res, err := AnnealContext(context.Background(), g, start, M, AnnealOptions{Iters: 300, Seed: rng.Int63(), Policy: Belady})
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTopological(order) {
			t.Fatal("annealed order invalid")
		}
		if res.Total() > startRes.Total() {
			t.Errorf("trial %d: anneal worsened %d -> %d", trial, startRes.Total(), res.Total())
		}
		// The reported result must reproduce on re-simulation.
		again, err := Simulate(g, order, M, Belady)
		if err != nil {
			t.Fatal(err)
		}
		if again != res {
			t.Errorf("reported %+v but re-simulation gives %+v", res, again)
		}
	}
}

func TestAnnealImprovesFFTSchedule(t *testing.T) {
	g := gen.FFT(4)
	M := 4
	start := g.TopoOrder()
	startRes, err := Simulate(g, start, M, Belady)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := AnnealContext(context.Background(), g, start, M, AnnealOptions{Iters: 3000, Seed: 3, Policy: Belady})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() >= startRes.Total() {
		t.Errorf("anneal found nothing on FFT(4): %d vs %d", res.Total(), startRes.Total())
	}
}

func TestAnnealValidation(t *testing.T) {
	g := gen.Chain(4)
	if _, _, err := AnnealContext(context.Background(), g, []int{3, 2, 1, 0}, 2, AnnealOptions{}); err == nil {
		t.Error("non-topological start accepted")
	}
	// Single-vertex graph: trivial return.
	g1 := gen.Chain(1)
	order, res, err := AnnealContext(context.Background(), g1, []int{0}, 1, AnnealOptions{})
	if err != nil || len(order) != 1 || res.Total() != 0 {
		t.Errorf("trivial graph: %v %v %v", order, res, err)
	}
}
