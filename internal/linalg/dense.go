package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"graphio/internal/obs"
)

// Dense is a square matrix in row-major order.
type Dense struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewDense allocates a zero n×n matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.N : (i+1)*m.N] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.Data, m.Data)
	return c
}

// MatVec computes dst = m * src.
func (m *Dense) MatVec(dst, src []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		var s float64
		for j, rv := range row {
			s += rv * src[j]
		}
		dst[i] = s
	}
}

// Dim implements Operator.
func (m *Dense) Dim() int { return m.N }

// IsSymmetric reports whether m is symmetric to within tol (absolute).
func (m *Dense) IsSymmetric(tol float64) bool {
	n := m.N
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// SymEig computes the full eigendecomposition of the symmetric matrix a.
// It returns the eigenvalues in ascending order; if wantV is true, vecs is
// the matrix whose column i is the (orthonormal) eigenvector for vals[i],
// otherwise vecs is nil. The input matrix is not modified.
//
// The implementation is the classic EISPACK pair tred2 (Householder
// reduction to tridiagonal form) + tql2 (QL with implicit Wilkinson shifts),
// ported from scratch. Cost is O(n^3).
func SymEig(a *Dense, wantV bool) (vals []float64, vecs *Dense, err error) {
	vals, vecs, _, err = symEig(a, wantV)
	return vals, vecs, err
}

// denseStats is what one symEig run reports: the QL iteration count and,
// while obs is enabled, the wall time of each stage.
type denseStats struct {
	iters       int
	tred2, tql2 time.Duration
}

// symEig is SymEig plus its stats, so top-level entry points can report
// solver effort without inner Rayleigh-Ritz solves (Chebyshev calls SymEig
// every sweep) polluting the counters.
func symEig(a *Dense, wantV bool) (vals []float64, vecs *Dense, st denseStats, err error) {
	n := a.N
	if n == 0 {
		return nil, nil, st, nil
	}
	work := a.Clone()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = work.Row(i)
	}
	d := make([]float64, n)
	e := make([]float64, n)
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = obs.Now()
	}
	tred2(rows, d, e, wantV)
	if timed {
		st.tred2 = obs.Since(start)
		start = obs.Now()
	}
	var z [][]float64
	if wantV {
		z = rows
	}
	st.iters, err = tql2(d, e, z)
	if timed {
		st.tql2 = obs.Since(start)
	}
	if err != nil {
		return nil, nil, st, err
	}
	// Sort eigenvalues (and columns of z) ascending with a simple selection
	// sort; n^2 swaps are negligible next to the n^3 factorization.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			if wantV {
				for r := 0; r < n; r++ {
					rows[r][i], rows[r][k] = rows[r][k], rows[r][i]
				}
			}
		}
	}
	if wantV {
		vecs = work
	}
	return d, vecs, st, nil
}

// SymEigValues returns only the eigenvalues of the symmetric matrix a, in
// ascending order. As the dense path's top-level eigensolve it reports the
// QL sweep count and the wall time of tred2 and tql2 to the
// observability layer.
func SymEigValues(a *Dense) ([]float64, error) {
	return SymEigValuesContext(context.Background(), a)
}

// SymEigValuesContext is SymEigValues with its solver counters attributed
// to ctx's telemetry scope.
func SymEigValuesContext(ctx context.Context, a *Dense) ([]float64, error) {
	vals, _, st, err := symEig(a, false)
	if err == nil && obs.Enabled() {
		obs.AddCtx(ctx, "linalg.eigensolver.iterations", int64(st.iters))
		obs.AddCtx(ctx, "linalg.dense.ql_iters", int64(st.iters))
		obs.AddCtx(ctx, "linalg.dense.tred2_ns", st.tred2.Nanoseconds())
		obs.AddCtx(ctx, "linalg.dense.tql2_ns", st.tql2.Nanoseconds())
	}
	return vals, err
}

// tred2 reduces the symmetric matrix a (given as row slices) to tridiagonal
// form by Householder similarity transformations. On return d holds the
// diagonal and e[1..n-1] the subdiagonal (e[0] = 0). If wantV, a is
// overwritten with the accumulated orthogonal transformation Q such that
// Q^T A Q = T; otherwise a's contents are destroyed. Only the lower
// triangle of a is read.
//
// Order invariant: each sum takes the same terms in the same order as in
// the column-walking EISPACK loop this replaced (tred2Ref in the tests),
// so d, e and Q match it bit for bit. Step i makes one pass over rows
// 0..i-1 in increasing k. Row k first takes step i+1's rank-2 update, then
// adds its row part a[k][0..k]·u[0..k] to p[k], summed from zero in column
// order, and its term a[k][m]·u[k] to p[m] for each m < k. So each p[j]
// gets its row part and then the terms of rows j+1, j+2, … in turn. Rows
// go two at a time, and p[m] gets (p[m] + a[k][m]·u[k]) + a[k+1][m]·u[k+1]:
// the same order. Every expression keeps its operands and association, so
// a compiler that fuses multiply-adds fuses both alike. The accumulation
// of Q likewise forms each g[j] = Σₖ a[i][k]·a[k][j] in k order, row by
// row.
func tred2(a [][]float64, d, e []float64, wantV bool) {
	n := len(a)
	if n == 0 {
		return
	}
	// Step i's rank-2 update A -= u·qᵀ + q·uᵀ reaches each row only when
	// step i-1's pass gets there; pu and pq hold that pending u and q. With
	// none pending they are zero, which subtracts +0 and leaves every bit
	// as it is. p, which becomes q, alternates between two buffers because
	// the pending q is read while the next p is summed.
	zero := make([]float64, n)
	buf := [2][]float64{make([]float64, n), make([]float64, n)}
	pu, pq := zero, zero
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ai := a[i]
		rank2Row(ai[:i+1], pu, pq)
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(ai[k])
			}
		}
		if l == 0 || EqZero(scale) {
			e[i] = ai[l]
			for k := 0; k <= l; k++ {
				rank2Row(a[k][:k+1], pu, pq)
			}
			pu, pq = zero, zero
			d[i] = 0
			continue
		}
		for k := 0; k <= l; k++ {
			ai[k] /= scale
			h += ai[k] * ai[k]
		}
		f := ai[l]
		g := math.Sqrt(h)
		if f >= 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		ai[l] = f - g
		u := ai[:i]
		if wantV {
			for j := 0; j <= l; j++ {
				a[j][i] = u[j] / h
			}
		}
		p := buf[i&1]
		symvRank2(a, u, pu, pq, p)
		f = 0
		for j := 0; j <= l; j++ {
			p[j] /= h
			f += p[j] * u[j]
		}
		hh := f / (h + h)
		for j := 0; j <= l; j++ {
			p[j] -= hh * u[j]
		}
		pu, pq = u, p[:i]
		d[i] = h
	}
	e[0] = 0
	if !wantV {
		for i := 0; i < n; i++ {
			d[i] = a[i][i]
		}
		return
	}
	for i := 0; i < n; i++ {
		ai := a[i]
		if !EqZero(d[i]) {
			// g[j] = Σₖ a[i][k]·a[k][j] over rows k < i, then each of those
			// rows takes a[k][j] -= g[j]·a[k][i].
			g := buf[0][:i]
			for j := range g {
				g[j] = 0
			}
			for k := 0; k < i; k++ {
				aik, ak := ai[k], a[k][:len(g)]
				for j := range g {
					g[j] += aik * ak[j]
				}
			}
			for k := 0; k < i; k++ {
				aki, ak := a[k][i], a[k][:len(g)]
				for j := range g {
					ak[j] -= g[j] * aki
				}
			}
		}
		d[i] = ai[i]
		ai[i] = 1
		for j := 0; j < i; j++ {
			a[j][i] = 0
			ai[j] = 0
		}
	}
}

// rank2Row applies a pending update row[m] -= u[k]·q[m] + q[k]·u[m], m =
// 0..k, to row k = len(row)-1 of tred2's working triangle.
func rank2Row(row, u, q []float64) {
	k := len(row) - 1
	f, g := u[k], q[k]
	u, q = u[:len(row)], q[:len(row)]
	for m := range row {
		row[m] -= f*q[m] + g*u[m]
	}
}

// symvRank2 is the pass of one tred2 step over rows 0..len(u)-1 of a: each
// row takes the pending update (pu, pq) and is then read for p = A·u, in
// the order tred2's doc comment sets out. With an odd count row 0 goes
// alone; every other row goes in a pair with the next.
func symvRank2(a [][]float64, u, pu, pq, p []float64) {
	rows := len(u)
	k := rows % 2
	if k == 1 {
		r0 := a[0][:1]
		rank2Row(r0, pu, pq)
		var s0 float64
		s0 += r0[0] * u[0]
		p[0] = s0
	}
	for ; k < rows; k += 2 {
		r0, r1 := a[k][:k+1], a[k+1][:k+2]
		f0, g0, u0 := pu[k], pq[k], u[k]
		f1, g1, u1 := pu[k+1], pq[k+1], u[k+1]
		s0, s1 := rowPair(r0[:k], r1[:k], u[:k], pu[:k], pq[:k], p[:k], f0, g0, u0, f1, g1, u1)
		// Column k: row k's diagonal, and row k+1's term below it.
		x0 := r0[k]
		x0 -= f0*pq[k] + g0*pu[k]
		r0[k] = x0
		x1 := r1[k]
		x1 -= f1*pq[k] + g1*pu[k]
		r1[k] = x1
		s0 += x0 * u0
		s1 += x1 * u0
		s0 += x1 * u1
		p[k] = s0
		// Column k+1: row k+1's diagonal.
		x1 = r1[k+1]
		x1 -= f1*pq[k+1] + g1*pu[k+1]
		r1[k+1] = x1
		s1 += x1 * u1
		p[k+1] = s1
	}
}

// rowPair is symvRank2's loop over columns m < k for rows k and k+1 (c0,
// c1): it applies the pending update (vm, qm, with f·, g· the rows' own
// pu and pq), adds each row's column terms to pm, and returns the rows'
// partial sums over those columns.
func rowPair(c0, c1, um, vm, qm, pm []float64, f0, g0, u0, f1, g1, u1 float64) (s0, s1 float64) {
	c0, c1, vm, qm, pm = c0[:len(um)], c1[:len(um)], vm[:len(um)], qm[:len(um)], pm[:len(um)]
	for m, w := range um {
		q, v := qm[m], vm[m]
		x0 := c0[m]
		x0 -= f0*q + g0*v
		c0[m] = x0
		x1 := c1[m]
		x1 -= f1*q + g1*v
		c1[m] = x1
		s0 += x0 * w
		s1 += x1 * w
		t := pm[m]
		t += x0 * u0
		t += x1 * u1
		pm[m] = t
	}
	return s0, s1
}

// tql2 computes the eigenvalues (and, if z is non-nil, eigenvectors) of a
// symmetric tridiagonal matrix with diagonal d and subdiagonal e[1..n-1],
// using the QL algorithm with implicit shifts. On return d holds the
// eigenvalues (unsorted) and the columns of z the eigenvectors. z must be
// initialized to the identity (for a tridiagonal input) or to the
// tridiagonalizing transformation (as produced by tred2). Returns the
// total implicit-shift QL iteration count across eigenvalues.
func tql2(d, e []float64, z [][]float64) (int, error) {
	n := len(d)
	total := 0
	if n == 0 {
		return 0, nil
	}
	const eps = 2.220446049250313e-16
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= eps*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			total++
			if iter > 60 {
				return total, fmt.Errorf("linalg: tql2 failed to converge at eigenvalue %d", l)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if EqZero(r) {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					for k := 0; k < n; k++ {
						f = z[k][i+1]
						z[k][i+1] = s*z[k][i] + c*f
						z[k][i] = c*z[k][i] - s*f
					}
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return total, nil
}

// TridiagEig computes the eigendecomposition of the symmetric tridiagonal
// matrix with diagonal diag and subdiagonal sub (len(sub) == len(diag)-1).
// Eigenvalues are returned in ascending order; if wantV is true, column i of
// vecs is the unit eigenvector for vals[i]. This is the small inner solve
// used by the Lanczos iteration.
func TridiagEig(diag, sub []float64, wantV bool) (vals []float64, vecs *Dense, err error) {
	n := len(diag)
	if n == 0 {
		return nil, nil, nil
	}
	if len(sub) != n-1 {
		return nil, nil, errors.New("linalg: TridiagEig: len(sub) must be len(diag)-1")
	}
	d := make([]float64, n)
	copy(d, diag)
	e := make([]float64, n)
	copy(e[1:], sub)
	var z [][]float64
	var zm *Dense
	if wantV {
		zm = NewDense(n)
		z = make([][]float64, n)
		for i := range z {
			z[i] = zm.Row(i)
			z[i][i] = 1
		}
	}
	if _, err := tql2(d, e, z); err != nil {
		return nil, nil, err
	}
	// Selection sort ascending, permuting columns of z alongside.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			if wantV {
				for r := 0; r < n; r++ {
					z[r][i], z[r][k] = z[r][k], z[r][i]
				}
			}
		}
	}
	return d, zm, nil
}
