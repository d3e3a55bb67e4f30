package linalg_test

// Fuzz coverage for the bisection eigensolver: arbitrary (including
// non-finite) tridiagonal input must never panic, and every successful
// return must be the requested number of finite eigenvalues. Non-finite
// input is rejected as a typed *NonFiniteError rather than corrupting the
// Sturm counts silently. The CSR block product is fuzzed against MatVec,
// and tred2 against its column-walking reference, both bitwise.

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"graphio/internal/linalg"
)

func FuzzTridiagEigBisect(f *testing.F) {
	// Seeds: a small path-graph tridiagonal, a constant diagonal, and a
	// payload carrying NaN and ±Inf bit patterns.
	path := make([]byte, 0, 7*8)
	for _, v := range []float64{2, 2, 2, 2, -1, -1, -1} {
		path = binary.LittleEndian.AppendUint64(path, math.Float64bits(v))
	}
	f.Add(path, uint8(0), uint8(3))
	f.Add(path[:8], uint8(0), uint8(0))
	poison := make([]byte, 0, 3*8)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poison = binary.LittleEndian.AppendUint64(poison, math.Float64bits(v))
	}
	f.Add(poison, uint8(0), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, lo8, hi8 uint8) {
		const maxN = 24
		vals := make([]float64, 0, 2*maxN-1)
		for i := 0; i+8 <= len(data) && len(vals) < 2*maxN-1; i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		if len(vals)%2 == 0 && len(vals) > 0 {
			vals = vals[:len(vals)-1] // odd split: n diagonal + n-1 subdiagonal
		}
		if len(vals) == 0 {
			return
		}
		n := (len(vals) + 1) / 2
		diag, sub := vals[:n], vals[n:]
		lo, hi := int(lo8)%n, int(hi8)%n
		if lo > hi {
			lo, hi = hi, lo
		}

		out, err := linalg.TridiagEigBisect(diag, sub, lo, hi)
		if err != nil {
			var nf *linalg.NonFiniteError
			if !errors.As(err, &nf) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			return // contaminated input, correctly rejected
		}
		if len(out) != hi-lo+1 {
			t.Fatalf("got %d eigenvalues, want %d", len(out), hi-lo+1)
		}
		for i, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("eigenvalue %d is non-finite: %v (diag=%v sub=%v)", i, v, diag, sub)
			}
		}
	})
}

// FuzzCSRMulBlock checks the block product's contract on random CSR
// matrices — empty rows, duplicate triplets, n up to 64, b up to 40: column
// j of MulBlock must be bitwise equal to MatVec on column j.
func FuzzCSRMulBlock(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(5), uint8(30))
	f.Add(int64(7), uint8(63), uint8(39), uint8(255))
	f.Add(int64(3), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n8, b8, fill uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, b := 1+int(n8)%64, 1+int(b8)%40
		m := randomCSR(t, rng, n, int(fill)%(4*n+1))
		src := make([]float64, n*b)
		for i := range src {
			// Mixed magnitudes make every sum round, so a change in
			// summation order would show.
			src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		dst := make([]float64, n*b)
		m.MulBlock(dst, src, b)
		x, y := make([]float64, n), make([]float64, n)
		for j := 0; j < b; j++ {
			for i := range x {
				x[i] = src[i*b+j]
			}
			m.MatVec(y, x)
			for i, v := range y {
				if math.Float64bits(dst[i*b+j]) != math.Float64bits(v) {
					t.Fatalf("n=%d b=%d: entry (%d,%d) = %v, MatVec gives %v", n, b, i, j, dst[i*b+j], v)
				}
			}
		}
	})
}

// FuzzTred2MatchesReference runs tred2 and its reference on random
// symmetric matrices up to 48×48, any share of whose entries are zero (so
// whole rows can be, and the zero-scale branch runs), and requires the
// same d, e and Q to the last bit.
func FuzzTred2MatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(17), uint8(50))
	f.Add(int64(2), uint8(2), uint8(0))
	f.Add(int64(3), uint8(48), uint8(230))
	f.Fuzz(func(t *testing.T, seed int64, n8, zeros uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkTred2(t, "fuzz", randomSymmetric(rng, int(n8)%49, float64(zeros)/255))
	})
}

// randomCSR assembles an n×n matrix from count random triplets, a quarter
// of them repeating the previous position so duplicates get merged; with
// few triplets many rows stay empty.
func randomCSR(t *testing.T, rng *rand.Rand, n, count int) *linalg.CSR {
	t.Helper()
	tr := make([]linalg.Triplet, 0, count)
	for k := 0; k < count; k++ {
		e := linalg.Triplet{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64()}
		if k > 0 && rng.Intn(4) == 0 {
			e.Row, e.Col = tr[k-1].Row, tr[k-1].Col
		}
		tr = append(tr, e)
	}
	m, err := linalg.NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
