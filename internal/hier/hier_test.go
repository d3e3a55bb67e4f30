package hier

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/pebble"
)

func TestBoundsValidation(t *testing.T) {
	g := gen.Chain(4)
	if _, err := Bounds(context.Background(), g, nil, core.Options{}); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := Bounds(context.Background(), g, []int{2, 0}, core.Options{}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestBoundsMatchTwoLevel(t *testing.T) {
	// One level of capacity M reduces to the plain Theorem 4 bound; the
	// boundary below a second level uses the cumulative capacity.
	g := gen.FFT(8)
	bs, err := Bounds(context.Background(), g, []int{4, 12}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct4, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct16, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	if bs[0] != direct4.Bound || bs[1] != direct16.Bound {
		t.Errorf("hier bounds %v vs direct [%g %g]", bs, direct4.Bound, direct16.Bound)
	}
	if bs[1] > bs[0]+1e-9 {
		t.Error("deeper boundary bound should be weaker (larger cumulative M)")
	}
}

func TestSimulateChainNoTransfers(t *testing.T) {
	g := gen.Chain(20)
	res, err := Simulate(g, g.TopoOrder(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 0 {
		t.Errorf("chain incurred %v transfers", res.Transfers)
	}
}

func TestSimulateValidation(t *testing.T) {
	g := gen.Chain(3)
	if _, err := Simulate(g, g.TopoOrder(), nil); err == nil {
		t.Error("no levels accepted")
	}
	if _, err := Simulate(g, []int{2, 1, 0}, []int{2}); err == nil {
		t.Error("bad order accepted")
	}
	if _, err := Simulate(gen.FFT(2), gen.FFT(2).TopoOrder(), []int{1}); err == nil {
		t.Error("in-degree above level-1 capacity accepted")
	}
}

func TestSingleLevelMatchesPebbleTotals(t *testing.T) {
	// With one managed level the boundary-0 transfer count must equal the
	// two-level pebble simulator's reads+writes (same model, same Belady
	// policy, same order).
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(20)
		b := graph.NewBuilder(n, 0)
		b.AddVertices(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					b.MustEdge(u, v)
				}
			}
		}
		g := b.MustBuild()
		M := g.MaxInDeg() + 1 + rng.Intn(3)
		order := g.RandomTopoOrder(rng)
		hres, err := Simulate(g, order, []int{M})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := pebble.Simulate(g, order, M, pebble.Belady)
		if err != nil {
			t.Fatal(err)
		}
		if hres.Transfers[0] != pres.Total() {
			t.Fatalf("trial %d: hier %d vs pebble %d (reads=%d writes=%d)",
				trial, hres.Transfers[0], pres.Total(), pres.Reads, pres.Writes)
		}
	}
}

func TestPerBoundarySandwich(t *testing.T) {
	// Each boundary's simulated transfers must dominate its spectral floor.
	for _, g := range []*graph.Graph{gen.FFT(6), gen.BellmanHeldKarp(6)} {
		caps := []int{g.MaxInDeg() + 2, 8, 16}
		bs, err := Bounds(context.Background(), g, caps, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(g, pebble.FrontierOrder(g), caps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range caps {
			if bs[i] > float64(res.Transfers[i])+1e-6 {
				t.Errorf("%s boundary %d: floor %g above simulated %d",
					g.Name(), i, bs[i], res.Transfers[i])
			}
		}
	}
}

func TestDeeperLevelsSeeFewerTransfers(t *testing.T) {
	// Not a theorem, but with nested Belady and growing capacities the
	// traffic should be (weakly) filtered level by level on structured
	// graphs — a smoke check that the cascade works at all.
	g := gen.FFT(7)
	caps := []int{4, 16, 64}
	res, err := Simulate(g, g.TopoOrder(), caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers[0] == 0 {
		t.Fatal("expected traffic at the first boundary")
	}
	if res.Transfers[2] > res.Transfers[0] {
		t.Errorf("deepest boundary (%d) saw more traffic than the first (%d)",
			res.Transfers[2], res.Transfers[0])
	}
}
