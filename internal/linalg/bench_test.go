package linalg_test

// Stage benchmarks for the Chebyshev solver on the fft-9 Laplacian
// (n = 5120), the largest input of perfbench's iterative workload. The
// benchmark's traced run wraps the operator in a MatVec-only probe, so it
// times the column-by-column adapter; these isolate the block product and
// the whole raw-CSR solve. Run at -cpu 1,2. BenchmarkSymEigValues times
// the dense solver on three of perfbench's dense inputs.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
)

func fft9Laplacian(b *testing.B) *linalg.CSR {
	b.Helper()
	L, err := laplacian.BuildCSR(gen.FFT(9), laplacian.OutDegreeNormalized)
	if err != nil {
		b.Fatal(err)
	}
	return L
}

// BenchmarkCSRMulBlock applies the Laplacian to a 125-column block, the
// solver's block width at h = 100: once as one block product, once as 125
// MatVecs on separate columns. Both report effective GB/s: the bytes 125
// MatVecs move (CSR arrays plus source and destination vectors, the
// convention of perfbench's linalg.matvec_gbps) per second.
func BenchmarkCSRMulBlock(b *testing.B) {
	L := fft9Laplacian(b)
	const cols = 125
	n := L.N
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n*cols)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	bytes := float64(cols) * float64(4*len(L.RowPtr)+12*len(L.Col)+16*n)
	report := func(b *testing.B) {
		b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	}
	b.Run("block", func(b *testing.B) {
		dst := make([]float64, n*cols)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			L.MulBlock(dst, src, cols)
		}
		report(b)
	})
	b.Run("matvec", func(b *testing.B) {
		xs, ys := make([][]float64, cols), make([][]float64, cols)
		for j := range xs {
			xs[j], ys[j] = make([]float64, n), make([]float64, n)
			for i := range xs[j] {
				xs[j][i] = src[i*cols+j]
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range xs {
				L.MatVec(ys[j], xs[j])
			}
		}
		report(b)
	})
}

var eigSink []float64

// BenchmarkChebFilteredFFT9 times one whole solve for the 100 smallest
// eigenvalues, as core runs it on perfbench's fft-9 input.
func BenchmarkChebFilteredFFT9(b *testing.B) {
	L := fft9Laplacian(b)
	c := L.GershgorinUpper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := linalg.ChebFilteredSmallestContext(context.Background(), L, c, 100, nil)
		if err != nil {
			b.Fatal(err)
		}
		eigSink = vals
	}
}

// BenchmarkSymEigValues times the dense solve core runs up to 1024
// vertices, tred2 then tql2, on the L̃ of bhk-8, matmul-8 and fft-7. It
// reports GFLOP/s as perfbench's linalg.dense_gflops counts them: (4/3)n³
// per solve.
func BenchmarkSymEigValues(b *testing.B) {
	for _, g := range []*graph.Graph{gen.BellmanHeldKarp(8), gen.NaiveMatMulNary(8), gen.FFT(7)} {
		L := laplacian.BuildDense(g, laplacian.OutDegreeNormalized)
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vals, err := linalg.SymEigValuesContext(context.Background(), L)
				if err != nil {
					b.Fatal(err)
				}
				eigSink = vals
			}
			flop := 4.0 / 3 * math.Pow(float64(L.N), 3) * float64(b.N)
			b.ReportMetric(flop/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
