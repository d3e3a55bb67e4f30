package pebble

import (
	"context"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
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

func TestChainNeedsNoIO(t *testing.T) {
	g := gen.Chain(20)
	for _, M := range []int{1, 2, 5} {
		for _, pol := range []Policy{LRU, Belady} {
			res, err := SimulateNatural(g, M, pol)
			if err != nil {
				t.Fatalf("M=%d %v: %v", M, pol, err)
			}
			if res.Total() != 0 {
				t.Errorf("M=%d %v: chain incurred %d I/O", M, pol, res.Total())
			}
		}
	}
}

func TestDiamondSmallMemory(t *testing.T) {
	b := graph.NewBuilder(4, 4)
	b.AddVertices(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.MustEdge(e[0], e[1])
	}
	g := b.MustBuild()
	// M=2: order 0,1,2,3 — hold 0 while computing 1 costs an eviction of
	// either 0 or 1 before computing 2... check exact counts.
	res, err := SimulateNatural(g, 2, Belady)
	if err != nil {
		t.Fatal(err)
	}
	// With M=2 and Belady: after computing 1, memory {0,1}; computing 2
	// needs 0 (resident) plus a slot: evict 1 (write, still needed) or 0
	// (dead after this use). Consuming 0's use first lets 0 be dropped
	// free, so total I/O should be 0... but 1 is needed by 3 and stays.
	// Memory {1,2} → compute 3: both parents resident. Zero I/O.
	if res.Total() != 0 {
		t.Errorf("diamond M=2 Belady: %d I/O, want 0 (reads=%d writes=%d)", res.Total(), res.Reads, res.Writes)
	}
	// M=1 cannot hold the two operands of vertex 3.
	if _, err := SimulateNatural(g, 1, Belady); err == nil {
		t.Error("M=1 should be infeasible for in-degree 2")
	}
}

func TestSimulateValidation(t *testing.T) {
	g := gen.Chain(3)
	if _, err := Simulate(g, []int{0, 1, 2}, 0, LRU); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Simulate(g, []int{2, 1, 0}, 2, LRU); err == nil {
		t.Error("non-topological order accepted")
	}
}

func TestReadsRequireWrites(t *testing.T) {
	// Every read re-loads a previously written value, and every written
	// value is read at least once afterwards: writes ≤ reads.
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 3+rng.Intn(25), 0.3)
		M := g.MaxInDeg() + 1 + rng.Intn(3)
		for _, pol := range []Policy{LRU, Belady} {
			res, err := Simulate(g, g.RandomTopoOrder(rng), M, pol)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if res.Writes > res.Reads {
				t.Errorf("trial %d %v: writes %d > reads %d", trial, pol, res.Writes, res.Reads)
			}
		}
	}
}

func TestLargeMemoryMeansNoIO(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 2+rng.Intn(30), 0.3)
		res, err := SimulateNatural(g, g.N()+1, LRU)
		if err != nil {
			t.Fatal(err)
		}
		if res.Total() != 0 {
			t.Errorf("trial %d: M > n incurred %d I/O", trial, res.Total())
		}
	}
}

func TestBeladyNoWorseThanLRUOnFFT(t *testing.T) {
	g := gen.FFT(5)
	order := g.TopoOrder()
	lru, err := Simulate(g, order, 4, LRU)
	if err != nil {
		t.Fatal(err)
	}
	bel, err := Simulate(g, order, 4, Belady)
	if err != nil {
		t.Fatal(err)
	}
	if bel.Total() > lru.Total() {
		t.Errorf("Belady %d worse than LRU %d on the same order", bel.Total(), lru.Total())
	}
	if bel.Total() == 0 {
		t.Error("FFT(5) at M=4 should incur I/O")
	}
}

func TestBestOrderPicksFeasibleMinimum(t *testing.T) {
	g := gen.FFT(3)
	res, order, name, err := BestOrderContext(context.Background(), g, 4, Belady, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopological(order) {
		t.Error("best order not topological")
	}
	if name == "" {
		t.Error("winner label empty")
	}
	// Re-simulating the returned order reproduces the reported result.
	again, err := Simulate(g, order, 4, Belady)
	if err != nil {
		t.Fatal(err)
	}
	if again != res {
		t.Errorf("re-simulation %+v != reported %+v", again, res)
	}
}

func TestBestOrderInfeasible(t *testing.T) {
	g := gen.BellmanHeldKarp(3) // max in-degree 3
	if _, _, _, err := BestOrderContext(context.Background(), g, 2, LRU, 3, 1); err == nil {
		t.Error("M below max in-degree should fail")
	}
}

func TestExhaustiveBestTinyGraphs(t *testing.T) {
	g := gen.InnerProduct(2)
	best, order, err := ExhaustiveBestContext(context.Background(), g, 2, Belady, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTopological(order) {
		t.Error("exhaustive best order invalid")
	}
	// Heuristic search can never beat the exhaustive minimum.
	heur, _, _, err := BestOrderContext(context.Background(), g, 2, Belady, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Total() > heur.Total() {
		t.Errorf("exhaustive %d worse than heuristic %d", best.Total(), heur.Total())
	}
}

func TestExhaustiveBestOverflow(t *testing.T) {
	g := gen.ErdosRenyiDAG(12, 0.05, 3) // sparse: many linear extensions
	if _, _, err := ExhaustiveBestContext(context.Background(), g, 4, Belady, 10); err == nil {
		t.Error("order-count cap not enforced")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || Belady.String() != "belady" || Policy(7).String() == "" {
		t.Error("Policy.String mismatch")
	}
}

func TestInDegreeEqualsMIsFeasible(t *testing.T) {
	// Vertex 3 of the diamond has in-degree 2; M=2 must work because the
	// result slot can reuse a consumed operand's slot.
	b := graph.NewBuilder(4, 4)
	b.AddVertices(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.MustEdge(e[0], e[1])
	}
	g := b.MustBuild()
	if _, err := SimulateNatural(g, 2, LRU); err != nil {
		t.Errorf("M = max in-degree should be feasible: %v", err)
	}
}
