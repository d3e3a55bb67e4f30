package mincut

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"graphio/internal/gen"
	"graphio/internal/graph"
)

// bruteConvexCut enumerates every subset of V for small graphs, keeps the
// realizable prefixes (down-sets S with Anc(v) ∪ {v} ⊆ S and
// S ∩ Desc(v) = ∅) and returns the minimum frontier |W_S|.
func bruteConvexCut(g *graph.Graph, v int) int64 {
	n := g.N()
	anc := g.Ancestors(v)
	desc := g.Descendants(v)
	hasDesc := false
	for _, d := range desc {
		if d {
			hasDesc = true
			break
		}
	}
	if !hasDesc {
		return 0
	}
	best := int64(1) << 60
subsets:
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<v) == 0 {
			continue
		}
		for u := 0; u < n; u++ {
			inS := mask&(1<<u) != 0
			if anc[u] && !inS {
				continue subsets
			}
			if desc[u] && inS {
				continue subsets
			}
			if inS {
				// Down-set: all parents of u must be in S.
				for _, p := range g.Pred(u) {
					if mask&(1<<p) == 0 {
						continue subsets
					}
				}
			}
		}
		var w int64
		for u := 0; u < n; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			for _, c := range g.Succ(u) {
				if mask&(1<<c) == 0 {
					w++
					break
				}
			}
		}
		if w < best {
			best = w
		}
	}
	return best
}

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

func TestConvexCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 3+rng.Intn(9), 0.35)
		for v := 0; v < g.N(); v++ {
			got, err := ConvexCutContext(context.Background(), g, v)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteConvexCut(g, v)
			if got != want {
				t.Fatalf("trial %d vertex %d: flow cut %d != brute %d (edges %v)",
					trial, v, got, want, g.Edges())
			}
		}
	}
}

func TestConvexCutStructuredGraphs(t *testing.T) {
	// Chain: every prefix frontier is exactly the last vertex.
	chain := gen.Chain(6)
	for v := 0; v < 5; v++ {
		cut, err := ConvexCutContext(context.Background(), chain, v)
		if err != nil {
			t.Fatal(err)
		}
		if cut != 1 {
			t.Errorf("chain vertex %d: cut %d want 1", v, cut)
		}
	}
	// Sink: no descendants, no cut.
	cut, err := ConvexCutContext(context.Background(), chain, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Errorf("sink cut %d want 0", cut)
	}
	// Grid: the frontier of any prefix through the middle is an
	// anti-chain staircase; verify against brute force.
	grid := gen.Grid2D(3, 4)
	for _, v := range []int{0, 5, 6} {
		got, err := ConvexCutContext(context.Background(), grid, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteConvexCut(grid, v); got != want {
			t.Errorf("grid vertex %d: %d want %d", v, got, want)
		}
	}
}

func TestConvexCutBadVertex(t *testing.T) {
	if _, err := ConvexCutContext(context.Background(), gen.Chain(3), 9); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestConvexMinCutBoundMatchesExhaustiveSweep(t *testing.T) {
	// The upper-bound pruning must not change the maximum.
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 15; trial++ {
		g := randomDAG(rng, 4+rng.Intn(10), 0.3)
		M := 1 + rng.Intn(3)
		res, err := ConvexMinCutBoundContext(context.Background(), g, Options{M: M})
		if err != nil {
			t.Fatal(err)
		}
		var bestCut int64
		for v := 0; v < g.N(); v++ {
			c, err := ConvexCutContext(context.Background(), g, v)
			if err != nil {
				t.Fatal(err)
			}
			if c > bestCut {
				bestCut = c
			}
		}
		wantBound := 2 * (float64(bestCut) - float64(M))
		if wantBound < 0 {
			wantBound = 0
		}
		if res.Bound != wantBound {
			t.Fatalf("trial %d: pruned bound %g != exhaustive %g (bestCut=%d)",
				trial, res.Bound, wantBound, bestCut)
		}
	}
}

func TestConvexMinCutBoundOnFFT(t *testing.T) {
	// Paper Figure 7: the baseline is nontrivial on the FFT for small M.
	g := gen.FFT(4)
	res, err := ConvexMinCutBoundContext(context.Background(), g, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound <= 0 {
		t.Errorf("FFT(4), M=2: baseline bound %g should be positive (best cut %d at %d)",
			res.Bound, res.BestCut, res.BestVertex)
	}
	if res.Evaluated == 0 || res.BestVertex < 0 {
		t.Errorf("diagnostics: %+v", res)
	}
}

func TestConvexMinCutBoundValidation(t *testing.T) {
	if _, err := ConvexMinCutBoundContext(context.Background(), gen.Chain(3), Options{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	empty := graph.NewBuilder(0, 0).MustBuild()
	res, err := ConvexMinCutBoundContext(context.Background(), empty, Options{M: 2})
	if err != nil || res.Bound != 0 {
		t.Errorf("empty graph: %+v, %v", res, err)
	}
}

func TestConvexMinCutTimeout(t *testing.T) {
	g := gen.FFT(5)
	res, err := ConvexMinCutBoundContext(context.Background(), g, Options{M: 2, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("nanosecond timeout not reported")
	}
	if res.Bound < 0 {
		t.Error("timed-out bound must still be valid (≥ 0)")
	}
}

func TestConvexMinCutMaxVertices(t *testing.T) {
	g := gen.FFT(3)
	res, err := ConvexMinCutBoundContext(context.Background(), g, Options{M: 2, MaxVertices: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated > 3 {
		t.Errorf("evaluated %d > cap 3", res.Evaluated)
	}
}

func TestPartitionedBoundBadParts(t *testing.T) {
	g := gen.Chain(4)
	if _, err := PartitionedBound(context.Background(), g, [][]int{{0, 0}}, 2); err == nil {
		t.Error("duplicated vertex in a part accepted")
	}
	if _, err := PartitionedBound(context.Background(), g, [][]int{{9}}, 2); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	res, err := PartitionedBound(context.Background(), g, nil, 2)
	if err != nil || res.Bound != 0 {
		t.Errorf("empty partition: %+v, %v", res, err)
	}
}

func TestConvexCutSymmetricVertices(t *testing.T) {
	// FFT columns are symmetric: all vertices in the same column have the
	// same convex cut value.
	g := gen.FFT(3)
	rows := 8
	for col := 0; col < 3; col++ {
		want, err := ConvexCutContext(context.Background(), g, col*rows)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r < rows; r++ {
			got, err := ConvexCutContext(context.Background(), g, col*rows+r)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("column %d: vertex %d cut %d != %d", col, col*rows+r, got, want)
			}
		}
	}
}

func TestPartitionedBound(t *testing.T) {
	g := gen.FFT(3)
	// One part per column pair: any disjoint cover works for the API.
	var parts [][]int
	n := g.N()
	for lo := 0; lo < n; lo += 8 {
		hi := lo + 8
		if hi > n {
			hi = n
		}
		part := make([]int, 0, 8)
		for v := lo; v < hi; v++ {
			part = append(part, v)
		}
		parts = append(parts, part)
	}
	res, err := PartitionedBound(context.Background(), g, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound < 0 {
		t.Errorf("bound %g", res.Bound)
	}
	// Whole-graph variant dominates on complex graphs (the paper's reason
	// for plotting it): with tiny parts the partitioned bound collapses.
	whole, err := ConvexMinCutBoundContext(context.Background(), g, Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound > whole.Bound {
		t.Logf("note: partitioned %g exceeded whole-graph %g (legal, both are lower bounds)",
			res.Bound, whole.Bound)
	}
	if _, err := PartitionedBound(context.Background(), g, parts, 0); err == nil {
		t.Error("M=0 accepted")
	}
}

func TestPartitionedBoundCancelled(t *testing.T) {
	g := gen.FFT(4)
	parts := [][]int{}
	for v := 0; v < g.N(); v += 8 {
		parts = append(parts, []int{v, v + 1, v + 2, v + 3, v + 4, v + 5, v + 6, v + 7})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionedBound(ctx, g, parts, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("PartitionedBound under a cancelled ctx = %v, want context.Canceled", err)
	}
}
