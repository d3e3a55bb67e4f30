package linalg_test

// Differential tests for the Chebyshev solver: on graphs from every
// generator family it must agree with the dense solver, and on butterflies
// and hypercubes with the closed-form spectra of internal/analytic, within
// 1e-8·c where c bounds the spectrum.

import (
	"math"
	"sort"
	"testing"

	"graphio/internal/analytic"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
)

// chebAgainst solves for the h smallest eigenvalues of g's Laplacian with
// the Chebyshev solver and compares them with want[:h].
func chebAgainst(t *testing.T, name string, g *graph.Graph, kind laplacian.Kind, h int, want []float64) {
	t.Helper()
	L, err := laplacian.BuildCSR(g, kind)
	if err != nil {
		t.Fatal(err)
	}
	c := L.GershgorinUpper()
	h = min(h, L.N)
	got, err := linalg.ChebFilteredSmallest(L, c, h, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-8*c {
			t.Errorf("%s (n=%d): λ%d = %.15g, want %.15g (|Δ| = %.3g > 1e-8·c = %.3g)", name, L.N, i, got[i], want[i], d, 1e-8*c)
		}
	}
}

func TestChebMatchesDenseAcrossGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"fft:6", gen.FFT(6)},
		{"bhk:9", gen.BellmanHeldKarp(9)},
		{"strassen:4", gen.Strassen(4)},
		{"matmul:6", gen.NaiveMatMulNary(6)},
		{"rdag:20x16", gen.RandomLayeredDAG(20, 16, 3, 5)},
	}
	for _, tc := range cases {
		want, err := linalg.SymEigValues(laplacian.BuildDense(tc.g, laplacian.OutDegreeNormalized))
		if err != nil {
			t.Fatal(err)
		}
		chebAgainst(t, tc.name, tc.g, laplacian.OutDegreeNormalized, 100, want)
	}
}

func TestChebMatchesClosedForms(t *testing.T) {
	butterfly := analytic.ButterflySpectrum(6)
	hypercube := analytic.HypercubeSpectrum(9)
	sort.Float64s(butterfly)
	sort.Float64s(hypercube)
	chebAgainst(t, "butterfly:6", gen.FFT(6), laplacian.Original, 100, butterfly)
	chebAgainst(t, "hypercube:9", gen.BellmanHeldKarp(9), laplacian.Original, 100, hypercube)
}
