package graphio_test

// One benchmark per paper artifact (Figures 7-11, the Section 5 closed-form
// tables) plus solver and simulator ablations. Graph construction happens
// outside the timed region; each iteration re-runs the bound computation
// the corresponding figure point needs. go test -bench=. -benchmem runs
// them all; `make bench` runs each once, as the smoke test CI runs.
// Performance claims and the regression gate use perfbench instead
// (`make bench-check`): same-host pairs on fixed workloads.

import (
	"context"
	"testing"

	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/expansion"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/hier"
	"graphio/internal/hongkung"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/mincut"
	"graphio/internal/pebble"
	"graphio/internal/redblue"
)

func benchSpectral(b *testing.B, g *graph.Graph, M int, solver core.Solver) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: M, Solver: solver}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMinCut(b *testing.B, g *graph.Graph, M int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mincut.ConvexMinCutBoundContext(context.Background(), g, mincut.Options{M: M}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBound is the canonical end-to-end bound computation used to
// check that the observability layer costs nothing when disabled: the
// acceptance bar is <2% regression versus a build without the hooks.
func BenchmarkBound(b *testing.B) { benchSpectral(b, gen.FFT(7), 16, core.SolverAuto) }

// Figure 7: FFT bound points (spectral and baseline).

func BenchmarkFig7FFTSpectralL8(b *testing.B)  { benchSpectral(b, gen.FFT(8), 4, core.SolverAuto) }
func BenchmarkFig7FFTSpectralL10(b *testing.B) { benchSpectral(b, gen.FFT(10), 4, core.SolverAuto) }
func BenchmarkFig7FFTMinCutL5(b *testing.B)    { benchMinCut(b, gen.FFT(5), 4) }

// Figure 8: naive matrix multiplication (n-ary sums, as in the paper).

func BenchmarkFig8MatMulSpectralN8(b *testing.B) {
	benchSpectral(b, gen.NaiveMatMulNary(8), 32, core.SolverAuto)
}
func BenchmarkFig8MatMulSpectralN16(b *testing.B) {
	benchSpectral(b, gen.NaiveMatMulNary(16), 32, core.SolverAuto)
}
func BenchmarkFig8MatMulMinCutN4(b *testing.B) { benchMinCut(b, gen.NaiveMatMulNary(4), 32) }

// Figure 9: Strassen multiplication.

func BenchmarkFig9StrassenSpectralN8(b *testing.B) {
	benchSpectral(b, gen.Strassen(8), 8, core.SolverAuto)
}
func BenchmarkFig9StrassenMinCutN4(b *testing.B) { benchMinCut(b, gen.Strassen(4), 8) }

// Figure 10: Bellman-Held-Karp hypercube.

func BenchmarkFig10BHKSpectralL10(b *testing.B) {
	benchSpectral(b, gen.BellmanHeldKarp(10), 16, core.SolverAuto)
}
func BenchmarkFig10BHKSpectralL12(b *testing.B) {
	benchSpectral(b, gen.BellmanHeldKarp(12), 16, core.SolverAuto)
}

// Figure 11 is the runtime comparison itself: spectral vs min-cut on the
// same BHK instance.

func BenchmarkFig11BHKSpectralL8(b *testing.B) {
	benchSpectral(b, gen.BellmanHeldKarp(8), 16, core.SolverAuto)
}
func BenchmarkFig11BHKMinCutL8(b *testing.B) { benchMinCut(b, gen.BellmanHeldKarp(8), 16) }

// Section 5.1 table: hypercube closed form (exact spectrum + k sweep).

func BenchmarkTableHypercubeClosedForm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		analytic.HypercubeBoundOptimal(14, 16)
	}
}

// Section 5.2 table: butterfly closed-form spectrum (Theorem 7) and bound.

func BenchmarkTableFFTClosedFormSpectrum(b *testing.B) {
	b.ReportAllocs()
	n := (12 + 1) << 12
	for i := 0; i < b.N; i++ {
		spec := analytic.ButterflySpectrum(12)
		core.BoundFromEigenvalues(spec, n, 4, 1, 2)
	}
}

// Section 5.3 table: Erdős-Rényi sampled bound.

func BenchmarkTableERSpectral(b *testing.B) {
	g := gen.ErdosRenyiDAG(512, 12*6.24/511, 1) // p0·log(512)/(n−1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 4, Laplacian: laplacian.Original}); err != nil {
			b.Fatal(err)
		}
	}
}

// Validation table: simulated upper bound search.

func BenchmarkSandwichSimulationFFT6(b *testing.B) {
	g := gen.FFT(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := pebble.BestOrderContext(context.Background(), g, 8, pebble.Belady, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Solver ablation (DESIGN.md A2): the same spectrum three ways.

func BenchmarkSolverDenseBHK8(b *testing.B) {
	benchSpectral(b, gen.BellmanHeldKarp(8), 16, core.SolverDense)
}
func BenchmarkSolverLanczosBHK8(b *testing.B) {
	benchSpectral(b, gen.BellmanHeldKarp(8), 16, core.SolverLanczos)
}
func BenchmarkSolverChebyshevBHK8(b *testing.B) {
	benchSpectral(b, gen.BellmanHeldKarp(8), 16, core.SolverChebyshev)
}
func BenchmarkSolverChebyshevStrassen8(b *testing.B) {
	benchSpectral(b, gen.Strassen(8), 16, core.SolverChebyshev)
}

// Substrate microbenchmarks.

func BenchmarkEigDensePath256(b *testing.B) {
	g := gen.Chain(256)
	L := laplacian.BuildDense(g, laplacian.Original)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEigValuesContext(context.Background(), L.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosFFT8h50(b *testing.B) {
	g := gen.FFT(8)
	L, err := laplacian.BuildCSR(g, laplacian.OutDegreeNormalized)
	if err != nil {
		b.Fatal(err)
	}
	c := L.GershgorinUpper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SmallestEigsPSDContext(context.Background(), L, c, 50, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPebbleSimulateFFT8(b *testing.B) {
	g := gen.FFT(8)
	order := g.TopoOrder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pebble.Simulate(g, order, 8, pebble.Belady); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBuildFFT10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen.FFT(10)
	}
}

func BenchmarkExactRedBlueInner4(b *testing.B) {
	g := gen.InnerProduct(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := redblue.OptimalContext(context.Background(), g, 3, redblue.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpansionSweepCutBHK10(b *testing.B) {
	g := gen.BellmanHeldKarp(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expansion.SweepCut(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrontierOrderFFT10(b *testing.B) {
	g := gen.FFT(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pebble.FrontierOrder(g)
	}
}

func BenchmarkHierSimulateFFT8(b *testing.B) {
	g := gen.FFT(8)
	order := g.TopoOrder()
	caps := []int{4, 16, 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hier.Simulate(g, order, caps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHongKungInner3(b *testing.B) {
	g := gen.InnerProduct(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hongkung.Bound(context.Background(), g, 2, hongkung.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvexCutSingleVertexBHK8(b *testing.B) {
	g := gen.BellmanHeldKarp(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mincut.ConvexCutContext(context.Background(), g, 127); err != nil {
			b.Fatal(err)
		}
	}
}
