package laplacian

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphio/internal/graph"
	"graphio/internal/linalg"
)

func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4, 4)
	b.AddVertices(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.MustEdge(e[0], e[1])
	}
	return b.MustBuild()
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

func TestOriginalLaplacianEntries(t *testing.T) {
	g := diamond(t)
	L := BuildDense(g, Original)
	// Undirected degrees: 0 has 2, 1 has 2, 2 has 2, 3 has 2.
	for v := 0; v < 4; v++ {
		if L.At(v, v) != 2 {
			t.Errorf("L[%d][%d] = %g, want 2", v, v, L.At(v, v))
		}
	}
	if L.At(0, 1) != -1 || L.At(1, 0) != -1 || L.At(0, 3) != 0 {
		t.Errorf("off-diagonals wrong: %g %g %g", L.At(0, 1), L.At(1, 0), L.At(0, 3))
	}
}

func TestNormalizedLaplacianEntries(t *testing.T) {
	g := diamond(t)
	L := BuildDense(g, OutDegreeNormalized)
	// d_out(0) = 2 so edges (0,1),(0,2) have weight 1/2; d_out(1) =
	// d_out(2) = 1 so edges into 3 have weight 1.
	if L.At(0, 1) != -0.5 || L.At(0, 2) != -0.5 {
		t.Errorf("weights from source: %g %g", L.At(0, 1), L.At(0, 2))
	}
	if L.At(1, 3) != -1 || L.At(3, 1) != -1 {
		t.Errorf("weights into sink: %g %g", L.At(1, 3), L.At(3, 1))
	}
	if L.At(0, 0) != 1 { // 1/2 + 1/2
		t.Errorf("diag(0) = %g, want 1", L.At(0, 0))
	}
	if L.At(3, 3) != 2 { // 1 + 1
		t.Errorf("diag(3) = %g, want 2", L.At(3, 3))
	}
	if L.At(1, 1) != 1.5 { // 1/2 (from 0) + 1 (to 3)
		t.Errorf("diag(1) = %g, want 1.5", L.At(1, 1))
	}
}

func TestCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(rng, 2+rng.Intn(30), 0.3)
		for _, kind := range []Kind{Original, OutDegreeNormalized} {
			sp, err := BuildCSR(g, kind)
			if err != nil {
				t.Fatal(err)
			}
			de := BuildDense(g, kind)
			got := sp.ToDense()
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					if math.Abs(got.At(i, j)-de.At(i, j)) > 1e-14 {
						t.Fatalf("kind=%v entry (%d,%d): %g vs %g", kind, i, j, got.At(i, j), de.At(i, j))
					}
				}
			}
		}
	}
}

func TestQuadraticFormEqualsBoundaryWeight(t *testing.T) {
	// Paper Equation 3: for S ⊆ V with one-hot x, x^T L̃ x equals
	// Σ_{(u,v) ∈ ∂S} 1/d_out(u); and x^T L x = |∂S|.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 2+rng.Intn(25), 0.35)
		inS := make([]bool, g.N())
		x := make([]float64, g.N())
		for v := range inS {
			if rng.Intn(2) == 0 {
				inS[v] = true
				x[v] = 1
			}
		}
		for _, kind := range []Kind{Original, OutDegreeNormalized} {
			sp, err := BuildCSR(g, kind)
			if err != nil {
				t.Fatal(err)
			}
			qf := QuadraticForm(sp, x)
			bw := BoundaryWeight(g, kind, inS)
			if math.Abs(qf-bw) > 1e-10*(1+bw) {
				t.Errorf("trial %d kind=%v: x^T L x = %g but boundary weight = %g", trial, kind, qf, bw)
			}
		}
	}
}

func TestLaplacianPSDAndKernel(t *testing.T) {
	// Both Laplacians are PSD with the all-ones vector in the kernel, and
	// the number of zero eigenvalues equals the number of weakly connected
	// components.
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		g := randomDAG(rng, 2+rng.Intn(20), 0.2)
		for _, kind := range []Kind{Original, OutDegreeNormalized} {
			L := BuildDense(g, kind)
			if !L.IsSymmetric(1e-12) {
				t.Fatalf("kind=%v: Laplacian not symmetric", kind)
			}
			vals, err := linalg.SymEigValuesContext(context.Background(), L)
			if err != nil {
				t.Fatal(err)
			}
			if vals[0] < -1e-9 {
				t.Errorf("kind=%v: negative eigenvalue %g", kind, vals[0])
			}
			_, comps := g.UndirectedComponents()
			zeros := 0
			for _, v := range vals {
				if math.Abs(v) < 1e-8 {
					zeros++
				}
			}
			if zeros != comps {
				t.Errorf("kind=%v: %d zero eigenvalues but %d components (vals=%v)", kind, zeros, comps, vals)
			}
			// Ones vector in kernel.
			ones := make([]float64, g.N())
			out := make([]float64, g.N())
			for i := range ones {
				ones[i] = 1
			}
			L.MatVec(out, ones)
			if linalg.Norm2(out) > 1e-10 {
				t.Errorf("kind=%v: L·1 = %v, want 0", kind, out)
			}
		}
	}
}

func TestZeroValueIsNormalized(t *testing.T) {
	// The zero value must stay OutDegreeNormalized: zero-valued options
	// throughout the module document themselves as Theorem 4, and the
	// experiment harness reuses eigenvalues under that assumption.
	var k Kind
	if k != OutDegreeNormalized {
		t.Fatal("zero Kind is not OutDegreeNormalized")
	}
}

func TestKindString(t *testing.T) {
	if Original.String() != "original" || OutDegreeNormalized.String() != "out-degree-normalized" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	b := graph.NewBuilder(3, 0)
	b.AddVertices(3)
	g := b.MustBuild()
	sp, err := BuildCSR(g, OutDegreeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if sp.N != 3 {
		t.Fatalf("N=%d", sp.N)
	}
	vals, err := linalg.SymEigValuesContext(context.Background(), sp.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 0 {
			t.Errorf("edgeless Laplacian should be zero, got %v", vals)
		}
	}
}
