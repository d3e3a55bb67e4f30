// Package linalg implements the numerical linear algebra this module needs,
// from scratch on the standard library: dense symmetric eigendecomposition
// (Householder tridiagonalization + implicit-shift QL, with a Sturm-sequence
// bisection solver as an independent cross-check), compressed sparse row
// matrices, and two iterative solvers for the smallest eigenvalues of
// large sparse PSD matrices — Chebyshev-filtered subspace iteration (the
// default: a block method that powers through the clustered,
// high-multiplicity spectra of structured computation graphs) and Lanczos
// with full reorthogonalization and deflation.
package linalg

import "math"

// Dot returns the inner product of x and y. The slices must have equal length.
func Dot(x, y []float64) float64 {
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled to avoid overflow for very large norms; the sizes here are
	// modest, but the cost is negligible.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if EqZero(v) {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y += a*x in place.
func Axpy(a float64, x, y []float64) {
	for i, xv := range x {
		y[i] += a * xv
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Normalize scales x to unit Euclidean norm in place and returns the original
// norm. If x is the zero vector it is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if EqZero(n) {
		return 0
	}
	Scale(1/n, x)
	return n
}

// OrthogonalizeAgainst subtracts from x its projections onto each vector in
// basis (assumed orthonormal). Two passes of classical Gram-Schmidt give
// working orthogonality in floating point.
func OrthogonalizeAgainst(x []float64, basis [][]float64) {
	for pass := 0; pass < 2; pass++ {
		for _, b := range basis {
			Axpy(-Dot(x, b), b, x)
		}
	}
}
