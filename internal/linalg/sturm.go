package linalg

import (
	"context"
	"errors"
	"math"

	"graphio/internal/obs"
)

// TridiagEigBisectContext computes eigenvalues lo..hi (0-based, inclusive,
// ascending order) of the symmetric tridiagonal matrix with diagonal diag
// and subdiagonal sub, by bisection on Sturm sequences. It is an
// implementation independent of the QL iteration in TridiagEig and serves
// as a cross-check of that solver (and, through it, of the Householder
// reduction); it is also the cheaper choice when only a few interior
// eigenvalues are needed.
//
// The Sturm count of a shift σ — the number of negative values in the
// sequence d_i = (diag_i − σ) − sub_{i-1}²/d_{i-1} — equals the number of
// eigenvalues below σ; bisection on that count isolates each eigenvalue to
// machine precision. ctx is checked before each eigenvalue, and the
// per-eigenvalue probe events are attributed to its telemetry scope.
func TridiagEigBisectContext(ctx context.Context, diag, sub []float64, lo, hi int) ([]float64, error) {
	n := len(diag)
	if len(sub) != n-1 && !(n == 0 && len(sub) == 0) {
		return nil, errors.New("linalg: TridiagEigBisectContext: len(sub) must be len(diag)-1")
	}
	if lo < 0 || hi >= n || lo > hi {
		return nil, errors.New("linalg: TridiagEigBisectContext: index range out of bounds")
	}
	// A NaN/Inf entry would silently corrupt the Sturm counts (NaN
	// comparisons are all false), so reject contaminated input up front.
	if err := CheckFinite("TridiagEigBisectContext diag input", diag); err != nil {
		return nil, err
	}
	if err := CheckFinite("TridiagEigBisectContext sub input", sub); err != nil {
		return nil, err
	}

	// Gershgorin interval enclosing the whole spectrum.
	gLo, gHi := math.Inf(1), math.Inf(-1)
	//lint:ignore ctx-loop O(n) interval scan; ctx exists for probe attribution, the bisection below checks nothing longer-running either
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(sub[i-1])
		}
		if i < n-1 {
			r += math.Abs(sub[i])
		}
		if diag[i]-r < gLo {
			gLo = diag[i] - r
		}
		if diag[i]+r > gHi {
			gHi = diag[i] + r
		}
	}
	scale := math.Max(math.Abs(gLo), math.Abs(gHi))
	if EqZero(scale) {
		scale = 1
	}
	// Guard the interval so strict/loose comparisons at the endpoints
	// cannot lose an eigenvalue.
	gLo -= 1e-12*scale + 1e-300
	gHi += 1e-12*scale + 1e-300
	// Entries near ±MaxFloat64 can overflow the interval arithmetic (or the
	// guard above); the bisection only needs finite endpoints, so clamp to
	// the representable range.
	if math.IsInf(gLo, 0) {
		gLo = -math.MaxFloat64
	}
	if math.IsInf(gHi, 0) {
		gHi = math.MaxFloat64
	}

	// sturmCount returns the number of eigenvalues strictly below sigma.
	sub2 := make([]float64, n)
	for i := 1; i < n; i++ {
		sub2[i] = sub[i-1] * sub[i-1]
	}
	const tiny = 1e-300
	sturmCount := func(sigma float64) int {
		count := 0
		d := 1.0 // sub2[0] == 0, so the i=0 step reduces to diag[0]−sigma
		//lint:ignore ctx-loop O(n) Sturm count inside the bisection hot path; ctx exists for probe attribution only
		for i := 0; i < n; i++ {
			d = diag[i] - sigma - sub2[i]/d
			if EqZero(d) {
				d = -tiny
			}
			if d < 0 {
				count++
			}
		}
		return count
	}

	out := make([]float64, 0, hi-lo+1)
	for idx := lo; idx <= hi; idx++ {
		if err := ctxErr(ctx, "bisection"); err != nil {
			return nil, err
		}
		a, b := gLo, gHi
		iters := 0
		// Invariant: count(a) ≤ idx < count(b).
		for iter := 0; iter < 200; iter++ {
			iters = iter + 1
			mid := 0.5*a + 0.5*b // overflow-safe: a+b can exceed MaxFloat64
			//lint:ignore float-eq bisection terminates when the midpoint collapses onto an endpoint — the comparison is exact by construction
			if mid == a || mid == b {
				break
			}
			if sturmCount(mid) <= idx {
				a = mid
			} else {
				b = mid
			}
			if b-a <= 1e-14*scale {
				break
			}
		}
		if obs.EventsEnabled() {
			obs.Probe("linalg.bisect").IterCtx(ctx, int64(idx),
				obs.F("width", b-a),
				obs.FI("iters", int64(iters)),
				obs.F("value", 0.5*a+0.5*b))
		}
		out = append(out, 0.5*a+0.5*b)
	}
	return out, nil
}

// SymEigBisect computes eigenvalues lo..hi of a dense symmetric matrix by
// Householder tridiagonalization followed by Sturm bisection. Cross-check
// companion to SymEig.
func SymEigBisect(ctx context.Context, a *Dense, lo, hi int) ([]float64, error) {
	n := a.N
	if n == 0 {
		return nil, nil
	}
	work := a.Clone()
	rows := make([][]float64, n)
	//lint:ignore ctx-loop O(n) row slicing; the bisection below checks ctx before each eigenvalue
	for i := range rows {
		rows[i] = work.Row(i)
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(rows, d, e, false)
	return TridiagEigBisectContext(ctx, d, e[1:], lo, hi)
}
