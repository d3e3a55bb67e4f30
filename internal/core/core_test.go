package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
)

// hypercubeDAG builds the Bellman-Held-Karp computation graph for l cities:
// the boolean l-cube with an edge from k1 to k2 when k2 sets one additional
// bit (paper §5.1, Figure 4).
func hypercubeDAG(l int) *graph.Graph {
	n := 1 << l
	b := graph.NewBuilder(n, n*l/2)
	b.SetName("hypercube")
	b.AddVertices(n)
	for k := 0; k < n; k++ {
		for bit := 0; bit < l; bit++ {
			if k&(1<<bit) == 0 {
				b.MustEdge(k, k|1<<bit)
			}
		}
	}
	return b.MustBuild()
}

// hypercubeSpectrum returns the closed-form Laplacian spectrum of Q_l:
// eigenvalue 2i with multiplicity C(l, i).
func hypercubeSpectrum(l int) []float64 {
	var vals []float64
	choose := 1
	for i := 0; i <= l; i++ {
		for c := 0; c < choose; c++ {
			vals = append(vals, 2*float64(i))
		}
		choose = choose * (l - i) / (i + 1)
	}
	return vals
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

func TestBoundFromEigenvaluesByHand(t *testing.T) {
	// λ = [0, 1, 2], n = 10, M = 1:
	// k=1: 10·0 − 2 = −2;  k=2: 5·1 − 4 = 1;  k=3: 3·3 − 6 = 3.
	bound, bestK, perK := BoundFromEigenvalues([]float64{0, 1, 2}, 10, 1, 1, 1)
	if bound != 3 || bestK != 3 {
		t.Fatalf("bound=%g bestK=%d, want 3,3", bound, bestK)
	}
	want := []float64{-2, 1, 3}
	for i := range want {
		if perK[i] != want[i] {
			t.Errorf("perK[%d]=%g want %g", i, perK[i], want[i])
		}
	}
}

func TestBoundFromEigenvaluesClampsAtZero(t *testing.T) {
	bound, bestK, _ := BoundFromEigenvalues([]float64{0, 0.001}, 4, 100, 1, 1)
	if bound != 0 || bestK != 0 {
		t.Fatalf("bound=%g bestK=%d, want clamped 0,0", bound, bestK)
	}
}

func TestBoundFromEigenvaluesDivisorAndProcessors(t *testing.T) {
	lam := []float64{0, 2, 4}
	b1, _, _ := BoundFromEigenvalues(lam, 64, 2, 1, 1)
	b2, _, _ := BoundFromEigenvalues(lam, 64, 2, 2, 1)
	b4, _, _ := BoundFromEigenvalues(lam, 64, 2, 1, 4)
	if !(b2 <= b1) {
		t.Errorf("parallel bound %g should not exceed serial %g", b2, b1)
	}
	if !(b4 <= b1) {
		t.Errorf("divided bound %g should not exceed undivided %g", b4, b1)
	}
	// Degenerate inputs fall back to sane defaults.
	bd, _, _ := BoundFromEigenvalues(lam, 64, 2, 0, -3)
	if bd != b1 {
		t.Errorf("p=0, divisor<0 should behave like p=1, divisor=1: %g vs %g", bd, b1)
	}
	// Negative eigenvalues are clamped.
	bneg, _, _ := BoundFromEigenvalues([]float64{-1e-12, 2, 4}, 64, 2, 1, 1)
	if bneg != b1 {
		t.Errorf("tiny negative eigenvalue changed the bound: %g vs %g", bneg, b1)
	}
}

func TestSpectralBoundValidation(t *testing.T) {
	g := hypercubeDAG(3)
	if _, err := SpectralBoundContext(context.Background(), g, Options{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := SpectralBoundContext(context.Background(), g, Options{M: 2, MaxK: -1}); err == nil {
		t.Error("MaxK=-1 accepted")
	}
	if _, err := SpectralBoundContext(context.Background(), g, Options{M: 2, Processors: -1}); err == nil {
		t.Error("Processors=-1 accepted")
	}
	if _, err := SpectralBoundContext(context.Background(), g, Options{M: 2, Solver: Solver(42)}); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestSpectralBoundEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, 0).MustBuild()
	res, err := SpectralBoundContext(context.Background(), g, Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 0 || res.N != 0 {
		t.Errorf("empty graph: %+v", res)
	}
}

func TestSpectralBoundHypercubeMatchesClosedFormSpectrum(t *testing.T) {
	// The computed bound with the *original* Laplacian must agree exactly
	// with the bound evaluated from the closed-form hypercube spectrum
	// divided by the max out-degree l (Theorem 5 / §5.1).
	for _, l := range []int{3, 4, 5} {
		g := hypercubeDAG(l)
		M := 2
		res, err := SpectralBoundContext(context.Background(), g, Options{M: M, Laplacian: laplacian.Original, Solver: SolverDense})
		if err != nil {
			t.Fatal(err)
		}
		n := 1 << l
		spec := hypercubeSpectrum(l)
		h := len(res.Eigenvalues)
		want, wantK, _ := BoundFromEigenvalues(spec[:h], n, M, 1, float64(l))
		if math.Abs(res.Bound-want) > 1e-8*(1+want) {
			t.Errorf("l=%d: computed %g (k=%d) vs closed form %g (k=%d)",
				l, res.Bound, res.BestK, want, wantK)
		}
	}
	// §5.1: the closed form 2^{l+1}/(l+1) − 2M(l+1) is positive only once
	// M ≤ 2^l/(l+1)^2, so positivity appears from l=6 at M=1 (k=l+1 gives
	// ⌊64/7⌋·12/6 − 14 = 4 > 0). Check the solver certifies it.
	for _, l := range []int{6, 7} {
		res, err := SpectralBoundContext(context.Background(), hypercubeDAG(l), Options{M: 1, Laplacian: laplacian.Original, Solver: SolverDense})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound <= 0 {
			t.Errorf("l=%d: hypercube bound should be positive at M=1, got %g", l, res.Bound)
		}
	}
}

func TestSpectralBoundSolversAgree(t *testing.T) {
	g := hypercubeDAG(6) // n=64, plenty of multiplicity
	M := 4
	var bounds []float64
	for _, s := range []Solver{SolverDense, SolverLanczos, SolverChebyshev} {
		res, err := SpectralBoundContext(context.Background(), g, Options{M: M, MaxK: 20, Solver: s})
		if err != nil {
			t.Fatalf("solver %v: %v", s, err)
		}
		bounds = append(bounds, res.Bound)
		if res.SolverUsed != s {
			t.Errorf("SolverUsed=%v want %v", res.SolverUsed, s)
		}
	}
	for i := 1; i < len(bounds); i++ {
		if math.Abs(bounds[i]-bounds[0]) > 1e-3*(1+bounds[0]) {
			t.Errorf("solver disagreement: %v", bounds)
		}
	}
}

func TestSpectralBoundAutoSelectsSolver(t *testing.T) {
	g := hypercubeDAG(4)
	res, err := SpectralBoundContext(context.Background(), g, Options{M: 2, DenseCutoff: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolverUsed != SolverChebyshev {
		t.Errorf("n=16 > cutoff 8 should use Chebyshev, got %v", res.SolverUsed)
	}
	res, err = SpectralBoundContext(context.Background(), g, Options{M: 2, DenseCutoff: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolverUsed != SolverDense {
		t.Errorf("n=16 ≤ cutoff 64 should use dense, got %v", res.SolverUsed)
	}
}

func TestSpectralBoundMonotoneInM(t *testing.T) {
	g := hypercubeDAG(6)
	prev := math.Inf(1)
	for _, M := range []int{1, 2, 4, 8, 16, 32} {
		res, err := SpectralBoundContext(context.Background(), g, Options{M: M})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound > prev+1e-9 {
			t.Errorf("bound increased with M: M=%d gives %g > %g", M, res.Bound, prev)
		}
		prev = res.Bound
	}
}

func TestSpectralBoundParallelWeaker(t *testing.T) {
	g := hypercubeDAG(7)
	serial, err := SpectralBoundContext(context.Background(), g, Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		par, err := SpectralBoundContext(context.Background(), g, Options{M: 4, Processors: p})
		if err != nil {
			t.Fatal(err)
		}
		if par.Bound > serial.Bound+1e-9 {
			t.Errorf("p=%d bound %g exceeds serial %g", p, par.Bound, serial.Bound)
		}
	}
}

func TestNormalizedAtLeastAsTightOnRegularOutDegree(t *testing.T) {
	// For graphs where every non-sink has the same out-degree d, L̃ = L/d,
	// so Theorem 4 and Theorem 5 coincide... except Theorem 5 divides by
	// the max over *all* vertices. On the hypercube DAG out-degrees vary
	// (vertex k has out-degree l − popcount(k)), so Theorem 4 should be at
	// least as tight. This is the §4.3 motivation for keeping per-vertex
	// degrees.
	g := hypercubeDAG(6)
	t4, err := SpectralBoundContext(context.Background(), g, Options{M: 4, Laplacian: laplacian.OutDegreeNormalized})
	if err != nil {
		t.Fatal(err)
	}
	t5, err := SpectralBoundContext(context.Background(), g, Options{M: 4, Laplacian: laplacian.Original})
	if err != nil {
		t.Fatal(err)
	}
	if t4.Bound < t5.Bound-1e-9 {
		t.Errorf("Theorem 4 bound %g looser than Theorem 5 bound %g", t4.Bound, t5.Bound)
	}
}

func TestResultDiagnostics(t *testing.T) {
	g := hypercubeDAG(5)
	res, err := SpectralBoundContext(context.Background(), g, Options{M: 2, MaxK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Eigenvalues) != 10 || len(res.PerK) != 10 {
		t.Fatalf("diagnostics sizes: %d %d", len(res.Eigenvalues), len(res.PerK))
	}
	for i := 1; i < len(res.Eigenvalues); i++ {
		if res.Eigenvalues[i] < res.Eigenvalues[i-1] {
			t.Error("eigenvalues not ascending")
		}
	}
	if res.Eigenvalues[0] < 0 {
		t.Error("negative eigenvalue survived clamping")
	}
	if res.BestK >= 1 && res.PerK[res.BestK-1] != res.Raw {
		t.Errorf("BestK=%d inconsistent with PerK/Raw", res.BestK)
	}
	if res.N != 32 || res.M != 2 || res.Processors != 1 {
		t.Errorf("echo fields: %+v", res)
	}
}

func TestSpectralBoundRandomDAGsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		g := randomDAG(rng, 2+rng.Intn(50), 0.25)
		for _, kind := range []laplacian.Kind{laplacian.Original, laplacian.OutDegreeNormalized} {
			res, err := SpectralBoundContext(context.Background(), g, Options{M: 1 + rng.Intn(8), Laplacian: kind})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bound < 0 {
				t.Errorf("negative bound %g", res.Bound)
			}
			if res.Bound > 0 && res.BestK < 1 {
				t.Errorf("positive bound with BestK=%d", res.BestK)
			}
		}
	}
}

func TestSolverString(t *testing.T) {
	// The numeric values are pinned: experiments.Config.Hash hashes
	// int(Solver), so renumbering would invalidate every resumable sweep.
	for s, want := range map[Solver]string{
		0: "auto", 1: "dense", 2: "lanczos", 4: "chebyshev",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if SolverAuto != 0 || SolverDense != 1 || SolverLanczos != 2 || SolverChebyshev != 4 {
		t.Errorf("solver values moved: auto=%d dense=%d lanczos=%d chebyshev=%d",
			SolverAuto, SolverDense, SolverLanczos, SolverChebyshev)
	}
	if Solver(9).String() == "" {
		t.Error("unknown solver should stringify")
	}
}

func TestParseSolver(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Solver
		ok   bool
	}{
		{"", SolverAuto, true},
		{"auto", SolverAuto, true},
		{"dense", SolverDense, true},
		{"Lanczos", SolverLanczos, true},
		{" CHEBYSHEV\n", SolverChebyshev, true},
		{"power", 0, false},
		{"cheb", 0, false},
		{"qr", 0, false},
	} {
		got, err := ParseSolver(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v (ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	// Every name String prints parses back to its solver.
	for _, s := range solvers {
		if got, err := ParseSolver(s.String()); err != nil || got != s {
			t.Errorf("ParseSolver(%q) = %v, %v", s.String(), got, err)
		}
	}
}

func TestSolveSpectrumAtMatchesSpectralBound(t *testing.T) {
	ctx := context.Background()
	graphs := []struct {
		name string
		g    *graph.Graph
		maxK int
	}{
		{"hypercube-6", hypercubeDAG(6), 20},
		{"h>n", hypercubeDAG(3), 20},
		{"empty", graph.NewBuilder(0, 0).MustBuild(), 0},
	}
	for _, tc := range graphs {
		for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			opt := Options{MaxK: tc.maxK, Laplacian: kind}
			s, err := SolveSpectrum(ctx, tc.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, M := range []int{1, 4, 16} {
				for _, p := range []int{1, 3} {
					opt.M, opt.Processors = M, p
					want, err := SpectralBoundContext(ctx, tc.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got := s.At(ctx, M, p); !reflect.DeepEqual(got, want) ||
						math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
						t.Errorf("%s %v M=%d p=%d: At = %+v, SpectralBoundContext = %+v", tc.name, kind, M, p, got, want)
					}
				}
			}
		}
	}
}
