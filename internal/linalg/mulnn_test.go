package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// mulNNRef is the untiled mulNN that the register-tiled one replaced,
// kept verbatim as the bitwise oracle for it: TestMulNNMatchesReference
// requires the same bits in every entry of c.
func mulNNRef(c, a, s mat, k, lo, hi, m int, sub bool) {
	for r := lo; r < hi; r++ {
		out := c.data[r*c.ld:][:m:m]
		if !sub {
			clear(out)
		}
		for q, x := range a.data[r*a.ld:][:k:k] {
			if sub {
				x = -x
			}
			for j, v := range s.data[q*s.ld:][:m:m] {
				out[j] += x * v
			}
		}
	}
}

// TestMulNNMatchesReference compares the tiled mulNN with mulNNRef bit
// for bit, with sub on and off, on the shapes the Chebyshev solver calls
// it with and on odd ones: a rotate (X·S over all b columns, and W·S
// over the first h), a projection (p −= Q·C with a panel of at most 16
// columns, by row ranges as the team splits them), and shapes whose
// rows, columns and sum lengths leave every remainder path a share.
func TestMulNNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(10) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		return v
	}
	type shape struct {
		name                      string
		rows, k, m, lda, lds, ldc int
		lo, hi                    int
	}
	shapes := []shape{
		{name: "rotate X·S", rows: 300, k: 125, m: 125, lda: 125, lds: 125, ldc: 125, lo: 0, hi: 300},
		{name: "rotate W·S", rows: 300, k: 125, m: 100, lda: 125, lds: 125, ldc: 100, lo: 0, hi: 300},
		{name: "project", rows: 700, k: 64, m: 16, lda: 125, lds: 16, ldc: 125, lo: 0, hi: 700},
		{name: "project second half", rows: 700, k: 48, m: 13, lda: 80, lds: 13, ldc: 80, lo: 350, hi: 700},
		{name: "odd", rows: 37, k: 131, m: 7, lda: 140, lds: 9, ldc: 11, lo: 3, hi: 36},
		{name: "one row", rows: 5, k: 3, m: 6, lda: 3, lds: 6, ldc: 6, lo: 2, hi: 3},
		{name: "short sums", rows: 9, k: 1, m: 5, lda: 1, lds: 5, ldc: 5, lo: 0, hi: 9},
		{name: "empty sums", rows: 4, k: 0, m: 4, lda: 1, lds: 4, ldc: 4, lo: 0, hi: 4},
	}
	for _, sh := range shapes {
		for _, sub := range []bool{false, true} {
			a := mat{fill(sh.rows * sh.lda), sh.lda}
			s := mat{fill(max(sh.k, 1) * sh.lds), sh.lds}
			c := fill(sh.rows * sh.ldc)
			want := append([]float64(nil), c...)
			mulNN(mat{c, sh.ldc}, a, s, sh.k, sh.lo, sh.hi, sh.m, sub)
			mulNNRef(mat{want, sh.ldc}, a, s, sh.k, sh.lo, sh.hi, sh.m, sub)
			if !bitsEqual(c, want) {
				for i := range c {
					if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, sub %v: entry (%d, %d) = %v, reference %v", sh.name, sub, i/sh.ldc, i%sh.ldc, c[i], want[i])
					}
				}
			}
		}
	}
}
