package linalg

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Operator is a symmetric linear operator on R^n, the abstraction both
// eigensolvers work against.
type Operator interface {
	Dim() int
	// MatVec computes dst = A*src. dst and src never alias.
	MatVec(dst, src []float64)
}

// Triplet is a coordinate-format matrix entry used to assemble CSR matrices.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row square matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NewCSRFromTriplets assembles an n×n CSR matrix from coordinate entries.
// Duplicate (row, col) entries are summed. Entries are validated against n.
func NewCSRFromTriplets(n int, entries []Triplet) (*CSR, error) {
	for _, t := range entries {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("linalg: triplet (%d,%d) outside %d×%d matrix", t.Row, t.Col, n, n)
		}
	}
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	// Merge duplicates.
	w := 0
	for i := 0; i < len(sorted); i++ {
		if w > 0 && sorted[w-1].Row == sorted[i].Row && sorted[w-1].Col == sorted[i].Col {
			sorted[w-1].Val += sorted[i].Val
			continue
		}
		sorted[w] = sorted[i]
		w++
	}
	sorted = sorted[:w]

	m := &CSR{
		N:      n,
		RowPtr: make([]int32, n+1),
		Col:    make([]int32, len(sorted)),
		Val:    make([]float64, len(sorted)),
	}
	for _, t := range sorted {
		m.RowPtr[t.Row+1]++
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	next := make([]int32, n)
	for _, t := range sorted {
		p := m.RowPtr[t.Row] + next[t.Row]
		m.Col[p] = int32(t.Col)
		m.Val[p] = t.Val
		next[t.Row]++
	}
	return m, nil
}

// Dim implements Operator.
func (m *CSR) Dim() int { return m.N }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns element (i, j) by binary search over row i. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := int(m.RowPtr[i]), int(m.RowPtr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(m.Col[mid]) < j:
			lo = mid + 1
		case int(m.Col[mid]) > j:
			hi = mid
		default:
			return m.Val[mid]
		}
	}
	return 0
}

// MatVec computes dst = m * src.
func (m *CSR) MatVec(dst, src []float64) {
	for i := 0; i < m.N; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * src[m.Col[p]]
		}
		dst[i] = s
	}
}

// MulBlock computes dst = m·src for row-major n×b blocks: entry (i, j) of
// a block lives at [i*b+j], so column j of dst is m times column j of src.
// One pass over m serves all b columns. Every entry is accumulated from
// zero in CSR order, exactly as MatVec does, so column j of the result is
// bitwise equal to MatVec applied to column j. dst and src never alias.
func (m *CSR) MulBlock(dst, src []float64, b int) {
	m.mulBlockRows(dst, src, b, 0, m.N)
}

// mulBlock implements blockOperator, splitting the rows across the team.
// Each worker finishes tileRows rows at a time, right after computing
// them while they are still in cache, and stops early once ctx is done.
func (m *CSR) mulBlock(ctx context.Context, t *team, dst, src []float64, b int, finish finishFunc) {
	t.split(m.N, func(lo, hi int) {
		for r0 := lo; r0 < hi && ctx.Err() == nil; r0 += tileRows {
			r1 := min(r0+tileRows, hi)
			m.mulBlockRows(dst, src, b, r0, r1)
			if finish != nil {
				finish(r0, r1)
			}
		}
	})
}

// mulBlockRows computes rows [lo, hi) of dst = m·src. Columns go eight
// at a time (then four, then one) so their sums stay in registers while
// the row's entries stream past.
func (m *CSR) mulBlockRows(dst, src []float64, b, lo, hi int) {
	for i := lo; i < hi; i++ {
		cols := m.Col[m.RowPtr[i]:m.RowPtr[i+1]]
		vals := m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
		out := dst[i*b : (i+1)*b]
		j := 0
		for ; j+8 <= b; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for p, c := range cols {
				v := vals[p]
				x := src[int(c)*b+j:][:8:8]
				s0 += v * x[0]
				s1 += v * x[1]
				s2 += v * x[2]
				s3 += v * x[3]
				s4 += v * x[4]
				s5 += v * x[5]
				s6 += v * x[6]
				s7 += v * x[7]
			}
			o := out[j : j+8 : j+8]
			o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		for ; j+4 <= b; j += 4 {
			var s0, s1, s2, s3 float64
			for p, c := range cols {
				v := vals[p]
				x := src[int(c)*b+j:][:4:4]
				s0 += v * x[0]
				s1 += v * x[1]
				s2 += v * x[2]
				s3 += v * x[3]
			}
			o := out[j : j+4 : j+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
		for ; j < b; j++ {
			var s float64
			for p, c := range cols {
				s += vals[p] * src[int(c)*b+j]
			}
			out[j] = s
		}
	}
}

// ToDense expands the matrix to dense form (for tests and small problems).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.N)
	for i := 0; i < m.N; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d.Set(i, int(m.Col[p]), m.Val[p])
		}
	}
	return d
}

// GershgorinUpper returns an upper bound on the largest eigenvalue of the
// symmetric matrix m: max_i (a_ii + Σ_{j≠i} |a_ij|).
func (m *CSR) GershgorinUpper() float64 {
	var best float64
	for i := 0; i < m.N; i++ {
		var diag, radius float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if int(m.Col[p]) == i {
				diag = m.Val[p]
			} else {
				radius += math.Abs(m.Val[p])
			}
		}
		if v := diag + radius; v > best || i == 0 {
			best = v
		}
	}
	return best
}

// ShiftedNeg is the operator c*I − A for a symmetric operator A. Lanczos
// converges to extremal eigenvalues; running it on ShiftedNeg with
// c ≥ λmax(A) turns the *smallest* eigenvalues of a PSD A into the largest
// of the shifted operator.
type ShiftedNeg struct {
	A Operator
	C float64
}

// Dim implements Operator.
func (s *ShiftedNeg) Dim() int { return s.A.Dim() }

// MatVec computes dst = c*src − A*src.
func (s *ShiftedNeg) MatVec(dst, src []float64) {
	s.A.MatVec(dst, src)
	for i := range dst {
		dst[i] = s.C*src[i] - dst[i]
	}
}
