package analytic

import (
	"context"
	"math"
	"testing"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
)

func TestBinomial(t *testing.T) {
	cases := map[[2]int]int64{
		{0, 0}: 1, {5, 0}: 1, {5, 5}: 1, {5, 2}: 10, {10, 3}: 120,
		{5, 6}: 0, {5, -1}: 0, {30, 15}: 155117520,
	}
	for in, want := range cases {
		if got := Binomial(in[0], in[1]); got != want {
			t.Errorf("Binomial(%d,%d)=%d want %d", in[0], in[1], got, want)
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestHypercubeSpectrumMatchesDenseSolver(t *testing.T) {
	for _, l := range []int{1, 2, 3, 4, 5, 6} {
		want := HypercubeSpectrum(l)
		if len(want) != 1<<l {
			t.Fatalf("l=%d: spectrum has %d entries", l, len(want))
		}
		g := gen.BellmanHeldKarp(l)
		got, err := linalg.SymEigValuesContext(context.Background(), laplacian.BuildDense(g, laplacian.Original))
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("l=%d: computed hypercube spectrum deviates by %g", l, d)
		}
	}
}

func TestButterflySpectrumMatchesDenseSolver(t *testing.T) {
	// This is the Theorem 7 / Appendix A verification: the closed-form
	// multiset (including multiplicities) must equal the numerically
	// computed Laplacian spectrum of the generated butterfly graph.
	for _, l := range []int{1, 2, 3, 4} {
		want := ButterflySpectrum(l)
		n := (l + 1) << l
		if len(want) != n {
			t.Fatalf("l=%d: closed-form multiplicities sum to %d, want %d", l, len(want), n)
		}
		g := gen.FFT(l)
		got, err := linalg.SymEigValuesContext(context.Background(), laplacian.BuildDense(g, laplacian.Original))
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("l=%d: butterfly spectrum deviates by %g\n got[:8]=%v\nwant[:8]=%v",
				l, d, got[:min(8, n)], want[:min(8, n)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestButterflySpectrumBasics(t *testing.T) {
	spec := ButterflySpectrum(5)
	if spec[0] != 0 {
		t.Errorf("smallest eigenvalue %g, want 0", spec[0])
	}
	for i := 1; i < len(spec); i++ {
		if spec[i] < spec[i-1] {
			t.Fatal("spectrum not ascending")
		}
	}
	if spec[len(spec)-1] > 8 {
		t.Errorf("butterfly eigenvalues must lie in [0,8], got %g", spec[len(spec)-1])
	}
	// Exactly one zero eigenvalue: the butterfly is connected.
	if spec[1] <= 1e-12 {
		t.Errorf("second eigenvalue %g should be positive", spec[1])
	}
}

func TestHypercubeClosedFormsConsistent(t *testing.T) {
	for _, l := range []int{6, 8, 10} {
		for _, M := range []int{1, 2, 4} {
			simple := HypercubeBoundSimple(l, M)
			opt, bestK := HypercubeBoundOptimal(l, M)
			if opt < 0 {
				t.Errorf("l=%d M=%d: optimal bound negative: %g", l, M, opt)
			}
			// The optimal-α bound dominates the clamped α = 1 form. The
			// simple form uses exact division n/k while the optimal uses
			// the Theorem 5 floor ⌊n/k⌋; with k = l+1 dividing is not
			// exact, so allow the floor slack of one eigenvalue sum unit.
			slack := 2 * float64(l) // Σλ/dmax ≤ 2l per segment unit
			if simple > 0 && opt < simple-slack {
				t.Errorf("l=%d M=%d: optimal %g (k=%d) below simple %g", l, M, opt, bestK, simple)
			}
		}
	}
}

func TestFFTClosedFormAgainstComputedBound(t *testing.T) {
	// The §5.2 closed form keeps only one eigenvalue family and drops the
	// rest to zero, so the computed Theorem 5 bound with the true spectrum
	// must dominate it wherever the closed form's k = 2^(α+1) is inside the
	// computed sweep.
	for _, l := range []int{4, 5, 6} {
		for _, M := range []int{2, 4} {
			g := gen.FFT(l)
			res, err := core.SpectralBoundContext(context.Background(), g, core.Options{
				M: M, MaxK: g.N(), Laplacian: laplacian.Original, Solver: core.SolverDense,
			})
			if err != nil {
				t.Fatal(err)
			}
			cf, alpha := FFTClosedForm(l, M)
			if cf > res.Bound+1e-6 {
				t.Errorf("l=%d M=%d: closed form %g (α=%d) exceeds computed bound %g",
					l, M, cf, alpha, res.Bound)
			}
		}
	}
}

func TestFFTClosedFormPaperAlphaClamps(t *testing.T) {
	if v := FFTClosedFormPaperAlpha(4, 1<<10); math.IsNaN(v) {
		t.Error("large M should clamp α, not NaN")
	}
	if v := FFTClosedFormPaperAlpha(10, 1); math.IsNaN(v) {
		t.Error("M=1 should clamp α")
	}
}

func TestPublishedBoundShapes(t *testing.T) {
	// Growth sanity: each published bound increases in its size parameter
	// and decreases (weakly) in M.
	if !(HongKungFFT(11, 4) > HongKungFFT(10, 4)) {
		t.Error("HongKungFFT not increasing in l")
	}
	if !(HongKungFFT(10, 16) < HongKungFFT(10, 4)) {
		t.Error("HongKungFFT not decreasing in M")
	}
	if !(MatMulPublished(16, 32) > MatMulPublished(8, 32)) {
		t.Error("MatMulPublished not increasing in n")
	}
	if !(StrassenPublished(16, 8) > StrassenPublished(8, 8)) {
		t.Error("StrassenPublished not increasing in n")
	}
	if !(BHKPublished(12, 16) > BHKPublished(10, 16)) {
		t.Error("BHKPublished not increasing in l")
	}
	if HongKungFFT(10, 1) <= 0 {
		t.Error("HongKungFFT should guard M<2")
	}
}

func TestErdosRenyiBounds(t *testing.T) {
	if ErdosRenyiSparseBound(1000, 5, 4) != 0 {
		t.Error("p0 ≤ 6 must return the trivial bound")
	}
	v := ErdosRenyiSparseBound(1000, 12, 4)
	if v <= 0 || v >= 1000 {
		t.Errorf("sparse bound out of range: %g", v)
	}
	if d := ErdosRenyiDenseBound(1000, 4); d != 500-16 {
		t.Errorf("dense bound %g", d)
	}
}

func TestGridSpectrumMatchesDenseSolver(t *testing.T) {
	for _, dims := range [][2]int{{2, 3}, {4, 4}, {5, 7}} {
		r, c := dims[0], dims[1]
		want := GridSpectrum(r, c)
		g := gen.Grid2D(r, c)
		got, err := linalg.SymEigValuesContext(context.Background(), laplacian.BuildDense(g, laplacian.Original))
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("%dx%d: grid spectrum deviates by %g", r, c, d)
		}
	}
}

func TestGridBoundMatchesComputed(t *testing.T) {
	r, c, M := 12, 12, 2
	g := gen.Grid2D(r, c)
	res, err := core.SpectralBoundContext(context.Background(), g, core.Options{
		M: M, MaxK: 40, Laplacian: laplacian.Original, Solver: core.SolverDense,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed, _ := GridBound(r, c, M, 40)
	if math.Abs(closed-res.Bound) > 1e-8*(1+closed) {
		t.Errorf("closed %g vs computed %g", closed, res.Bound)
	}
}

func TestFFTClosedFormOptimizesOverAlpha(t *testing.T) {
	l, M := 10, 4
	best, alpha := FFTClosedForm(l, M)
	if alpha < 0 || alpha > l-1 {
		t.Fatalf("alpha=%d out of range", alpha)
	}
	for a := 0; a <= l-1; a++ {
		if v := FFTClosedFormAt(l, M, a); v > best+1e-9 {
			t.Errorf("α=%d gives %g > reported best %g", a, v, best)
		}
	}
}
