package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
)

func TestSegmentOf(t *testing.T) {
	// n=7, k=3: sizes 3,2,2 (first n mod k segments get the extra).
	seg := segmentOf(7, 3)
	want := []int32{0, 0, 0, 1, 1, 2, 2}
	for i := range want {
		if seg[i] != want[i] {
			t.Fatalf("segmentOf(7,3)=%v", seg)
		}
	}
	// k=n: singleton segments.
	seg = segmentOf(4, 4)
	for i, s := range seg {
		if int(s) != i {
			t.Fatalf("segmentOf(4,4)=%v", seg)
		}
	}
}

func TestPartitionBoundByHand(t *testing.T) {
	// Diamond 0→{1,2}→3, order 0,1,2,3, k=2 segments {0,1} and {2,3}.
	// Crossing edges: (0,2) weight 1/2 and (1,3) weight 1; each is charged
	// twice (write out of one segment, read into the other).
	g := builderDiamond()
	got, err := PartitionBound(g, []int{0, 1, 2, 3}, 2, 1, laplacian.OutDegreeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*(0.5+1.0) - 2*2*1
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %g want %g", got, want)
	}
	// Original kind: 2·(2 crossing edges) / max out-degree 2 − 4M.
	got, err = PartitionBound(g, []int{0, 1, 2, 3}, 2, 1, laplacian.Original)
	if err != nil {
		t.Fatal(err)
	}
	want = 2*2.0/2 - 4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("original kind: got %g want %g", got, want)
	}
}

func TestPartitionBoundValidation(t *testing.T) {
	g := builderDiamond()
	if _, err := PartitionBound(g, []int{0, 1, 2, 3}, 0, 1, laplacian.Original); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PartitionBound(g, []int{0, 1, 2, 3}, 5, 1, laplacian.Original); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := PartitionBound(g, []int{0, 1, 2, 3}, 2, 0, laplacian.Original); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := PartitionBound(g, []int{3, 2, 1, 0}, 2, 1, laplacian.Original); err == nil {
		t.Error("non-topological order accepted")
	}
}

// TestSpectralRelaxationChain ties Theorems 2-4 together: for every k and
// every topological order X, the spectral value ⌊n/k⌋·Σλ_i − 2kM is a lower
// bound on the concrete partition bound of X (the spectral bound relaxes
// the minimization over X to orthogonal matrices).
func TestSpectralRelaxationChain(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 12; trial++ {
		g := randomDAG(rng, 4+rng.Intn(24), 0.3)
		n := g.N()
		M := 1 + rng.Intn(4)
		for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			res, err := SpectralBoundContext(context.Background(), g, Options{M: M, MaxK: n, Laplacian: kind, Solver: SolverDense})
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range [][]int{g.TopoOrder(), g.RandomTopoOrder(rng)} {
				for k := 1; k <= n; k += 1 + n/7 {
					pb, err := PartitionBound(g, order, k, M, kind)
					if err != nil {
						t.Fatal(err)
					}
					spectral := res.PerK[k-1]
					if spectral > pb+1e-9 {
						t.Fatalf("trial %d kind=%v k=%d: spectral %g exceeds concrete partition bound %g",
							trial, kind, k, spectral, pb)
					}
				}
			}
		}
	}
}

func TestBestPartitionBound(t *testing.T) {
	g := builderDiamond()
	best, bestK, err := BestPartitionBound(g, []int{0, 1, 2, 3}, 4, 1, laplacian.OutDegreeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if best < 0 || (best > 0 && bestK == 0) {
		t.Errorf("best=%g k=%d", best, bestK)
	}
	// Exhaustive check against PartitionBound over all k.
	want := 0.0
	for k := 1; k <= 4; k++ {
		v, err := PartitionBound(g, []int{0, 1, 2, 3}, k, 1, laplacian.OutDegreeNormalized)
		if err != nil {
			t.Fatal(err)
		}
		if v > want {
			want = v
		}
	}
	if best != want {
		t.Errorf("best=%g want %g", best, want)
	}
}

// builderDiamond builds the 4-vertex diamond used across these tests.
func builderDiamond() *graph.Graph {
	b := graph.NewBuilder(4, 4)
	b.AddVertices(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.MustEdge(e[0], e[1])
	}
	return b.MustBuild()
}
