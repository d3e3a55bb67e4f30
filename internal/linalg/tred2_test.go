package linalg_test

// The row-walking tred2 must give the column-walking reference's d, e and
// accumulated Q to the last bit: the tridiagonal feeds every dense
// eigenvalue, and through them report.txt and graphiod's artifacts.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
)

// checkTred2 runs tred2 and tred2Ref on copies of a, with and without Q,
// and fails on the first bit that differs.
func checkTred2(t *testing.T, name string, a *linalg.Dense) {
	t.Helper()
	if a.N == 0 {
		// The reference indexes d[0]; tred2 only has to return.
		tred2On(linalg.Tred2, a, true)
		return
	}
	for _, wantV := range []bool{false, true} {
		got, want := a.Clone(), a.Clone()
		dg, eg := tred2On(linalg.Tred2, got, wantV)
		dw, ew := tred2On(linalg.Tred2Ref, want, wantV)
		what := fmt.Sprintf("%s (n=%d, wantV=%v)", name, a.N, wantV)
		sameBits(t, what+" d", dg, dw)
		sameBits(t, what+" e", eg, ew)
		if wantV {
			sameBits(t, what+" Q", got.Data, want.Data)
		}
	}
}

func tred2On(f func([][]float64, []float64, []float64, bool), a *linalg.Dense, wantV bool) (d, e []float64) {
	rows := make([][]float64, a.N)
	for i := range rows {
		rows[i] = a.Row(i)
	}
	d, e = make([]float64, a.N), make([]float64, a.N)
	f(rows, d, e, wantV)
	return d, e
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randomSymmetric fills an n×n symmetric matrix with entries of mixed
// magnitude, each zero with probability zeroFrac, so that sums round and
// a change in summation order would show.
func randomSymmetric(rng *rand.Rand, n int, zeroFrac float64) *linalg.Dense {
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var v float64
			if rng.Float64() >= zeroFrac {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestTred2MatchesReference(t *testing.T) {
	// One instance of every generator family, at most a few hundred
	// vertices: no branch of tred2 depends on n beyond its parity, and the
	// reference's column walks make larger inputs slow under -race.
	graphs := []*graph.Graph{
		gen.InnerProduct(32),
		gen.FFT(5),
		gen.NaiveMatMul(4),
		gen.NaiveMatMulNary(5),
		gen.Strassen(4),
		gen.BellmanHeldKarp(7),
		gen.ErdosRenyiDAG(150, 0.04, 1),
		gen.RandomLayeredDAG(6, 25, 3, 1),
		gen.Chain(100),
		gen.BinaryTreeReduce(6),
		gen.Grid2D(10, 15),
	}
	for _, g := range graphs {
		if g.N() > 1024 {
			t.Fatalf("%s has %d vertices; the dense path stops at 1024", g.Name(), g.N())
		}
		for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			checkTred2(t, g.Name()+" "+kind.String(), laplacian.BuildDense(g, kind))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 5, 17, 130} {
		checkTred2(t, "random", randomSymmetric(rng, n, 0.2))
	}
	// Row 23 and column 23 are zero, and stay zero under the reflections
	// of steps 39..24, so step 23 takes the zero-scale branch; row 39 is
	// zero too, so the first step takes it as well.
	z := randomSymmetric(rng, 40, 0.2)
	for _, r := range []int{23, 39} {
		for j := 0; j < z.N; j++ {
			z.Set(r, j, 0)
			z.Set(j, r, 0)
		}
	}
	checkTred2(t, "zero rows", z)
}
