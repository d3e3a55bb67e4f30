package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"graphio/internal/obs"
)

// ChebOptions tunes ChebFilteredSmallest.
type ChebOptions struct {
	// Tol is the relative residual tolerance. Default 1e-8.
	Tol float64
	// Degree of the Chebyshev filter polynomial per iteration. Default 60.
	Degree int
	// MaxIter bounds the filtered subspace iterations. Default 60.
	MaxIter int
	// Block is the subspace width. Default h + max(12, h/4); never less
	// than h.
	Block int
	// Seed seeds the start block. Default 1.
	Seed int64
}

func (o *ChebOptions) withDefaults(n, h int) ChebOptions {
	out := ChebOptions{Tol: 1e-8, Degree: 60, MaxIter: 60, Seed: 1}
	if o != nil {
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		if o.Degree > 0 {
			out.Degree = o.Degree
		}
		if o.MaxIter > 0 {
			out.MaxIter = o.MaxIter
		}
		if o.Block > 0 {
			out.Block = o.Block
		}
		if o.Seed != 0 {
			out.Seed = o.Seed
		}
	}
	if out.Block == 0 {
		extra := h / 4
		if extra < 12 {
			extra = 12
		}
		out.Block = h + extra
	}
	if out.Block < h {
		out.Block = h
	}
	if out.Block > n {
		out.Block = n
	}
	return out
}

// ChebFilteredSmallest computes the h smallest eigenvalues — with
// multiplicity — of the symmetric PSD operator A with λmax(A) ≤ c, by
// Chebyshev-filtered subspace iteration: each sweep applies a degree-d
// Chebyshev polynomial that damps the unwanted interval [aCut, c] onto
// [−1, 1] while amplifying [0, aCut) exponentially, then orthonormalizes
// the block and Rayleigh–Ritz-extracts eigenpair estimates. Being a block
// method it converges through clustered spectra and high-multiplicity
// eigenvalues (butterflies, hypercubes) where single-vector Lanczos needs
// one restart per eigenvalue copy.
//
// The block is one contiguous row-major n×b matrix, and every step is a
// pass over it: a block product per filter degree (one pass over A for all
// b columns when A is a *CSR or wraps one in a CountingOperator, column by
// column through MatVec otherwise), blocked Gram–Schmidt, and GEMM-shaped
// XᵀW and X·S products. Work is split across GOMAXPROCS workers by output
// rows or output entries only, never inside one sum, so the eigenvalues
// are bitwise the same at any core count and for any Operator that
// computes the same MatVec.
func ChebFilteredSmallest(A Operator, c float64, h int, opt *ChebOptions) ([]float64, error) {
	return ChebFilteredSmallestContext(context.Background(), A, c, h, opt)
}

// ChebFilteredSmallestContext is ChebFilteredSmallest with cooperative
// cancellation: ctx is checked at every sweep boundary, before every filter
// degree step, and between columns when A only offers MatVec, so a
// deadline or cancellation interrupts the solve without waiting for the
// full subspace iteration to run its course.
func ChebFilteredSmallestContext(ctx context.Context, A Operator, c float64, h int, opt *ChebOptions) ([]float64, error) {
	vals, _, err := ChebFilteredSmallestPadded(ctx, A, c, h, opt)
	return vals, err
}

// ChebFilteredSmallestPadded is ChebFilteredSmallestContext that also
// returns how many of the values are converged Ritz values. That is all
// of them unless the sweeps ran out first; then the values past the
// converged prefix repeat its last one, which keeps them sound lower
// estimates but weaker than the true tail.
func ChebFilteredSmallestPadded(ctx context.Context, A Operator, c float64, h int, opt *ChebOptions) ([]float64, int, error) {
	n := A.Dim()
	if h <= 0 {
		return nil, 0, errors.New("linalg: ChebFilteredSmallest: h must be positive")
	}
	if h > n {
		h = n
	}
	if n == 0 {
		return nil, 0, nil
	}
	o := opt.withDefaults(n, h)
	b := o.Block
	scale := c
	if scale < 1 {
		scale = 1
	}
	tol := o.Tol * scale
	rng := rand.New(rand.NewSource(o.Seed))
	// The block can grow: when a degenerate cluster straddles the block
	// boundary (butterfly spectra have multiplicities in the hundreds), no
	// cut point separates wanted from damped directions until the block
	// swallows the whole cluster.
	maxBlock := 4*h + 64
	if maxBlock > n {
		maxBlock = n
	}
	if b > maxBlock {
		maxBlock = b
	}

	t := newTeam()
	defer t.stop()

	// Random orthonormal start block, drawn column by column.
	blk := newChebBlock(n, b, h)
	//lint:ignore ctx-loop O(n·b) random start-block fill; the filter sweeps below check ctx every iteration
	for j := 0; j < b; j++ {
		for i := 0; i < n; i++ {
			blk.x[i*b+j] = rng.NormFloat64()
		}
	}
	blk.orthonormalize(t, rng)

	// Pilot cut point from a short Lanczos run: roughly where the h-th
	// smallest eigenvalue sits. Adapted every iteration afterwards.
	aCut := pilotCut(ctx, A, c, h, rng)
	if err := ctxErr(ctx, "Chebyshev"); err != nil {
		return nil, 0, err
	}

	var theta []float64
	var resid []float64
	degree := o.Degree
	prevWorst := math.Inf(1)
	cappedNoGap := 0 // consecutive sweeps stuck at max block with no usable gap

	// Solver telemetry, reported once per solve so the sweep loop carries
	// no per-iteration observability cost.
	sweeps := 0
	growths := 0
	lastWorst := math.NaN()
	defer func() {
		if !obs.Enabled() {
			return
		}
		obs.AddCtx(ctx, "linalg.eigensolver.iterations", int64(sweeps))
		obs.AddCtx(ctx, "linalg.cheb.sweeps", int64(sweeps))
		obs.AddCtx(ctx, "linalg.cheb.block_growths", int64(growths))
		obs.SetGaugeCtx(ctx, "linalg.cheb.block", float64(b))
		obs.SetGaugeCtx(ctx, "linalg.cheb.degree", float64(degree))
		obs.SetGaugeCtx(ctx, "linalg.cheb.worst_residual", lastWorst) // NaN before the first sweep is dropped
	}()

	for iter := 0; iter < o.MaxIter; iter++ {
		if err := ctxErr(ctx, "Chebyshev"); err != nil {
			return nil, 0, err
		}
		sweeps++
		// Precision cap on the filter degree: the amplification ratio
		// between the bottom of the spectrum and the cut grows like
		// exp(d·acosh(m0)) with m0 the affine image of 0; letting it pass
		// ~1e12 erases the boundary cluster from the block in float64 and
		// the sweep collapses. Sharper separation beyond the cap must come
		// from block growth, not degree.
		m0 := (c + aCut) / (c - aCut)
		dcap := 400
		if ac := math.Acosh(m0); ac > 0 {
			dcap = int(27 / ac)
		}
		if dcap < 10 {
			dcap = 10
		}
		degEff := degree
		if degEff > dcap {
			degEff = dcap
		}
		// Filter the block: X ← p(A)·X with p the scaled Chebyshev
		// polynomial on [aCut, c].
		if err := blk.filter(ctx, t, A, aCut, c, degEff); err != nil {
			return nil, 0, err
		}
		blk.orthonormalize(t, rng)

		// Rayleigh-Ritz on the filtered subspace: W = A·X, H = XᵀW.
		t.mulBlock(ctx, A, blk.w, blk.x, b, nil)
		if err := ctxErr(ctx, "Chebyshev"); err != nil {
			return nil, 0, err // the product bailed out mid-block
		}
		blk.gram(t)
		if err := CheckFinite("Chebyshev Gram matrix", blk.proj.Data); err != nil {
			// A poisoned mat-vec (NaN/Inf leak) shows up in the projected
			// matrix before anywhere else; fail typed instead of feeding the
			// dense eigensolver garbage.
			return nil, 0, err
		}
		vals, S, err := SymEig(blk.proj, true)
		if err != nil {
			return nil, 0, fmt.Errorf("linalg: Chebyshev Rayleigh-Ritz: %w", err)
		}
		theta = vals
		blk.rotate(t, S)

		// Converged when the h smallest Ritz pairs have small residuals.
		resid = blk.residuals(t, theta, resid)
		worst := 0.0
		for _, r := range resid {
			if r > worst {
				worst = r
			}
		}
		lastWorst = worst
		if obs.EventsEnabled() {
			obs.Probe("linalg.cheb").IterCtx(ctx, int64(iter),
				obs.FI("block", int64(b)),
				obs.FI("degree", int64(degEff)),
				obs.F("cut", aCut),
				obs.F("worst_resid", worst),
				obs.F("theta_h", theta[h-1]))
		}
		if worst <= tol {
			return clampSpectrum(theta[:h:h], scale), h, nil
		}

		// Adapt the cut: place it in the largest relative gap at or above
		// the h-th Ritz value, so a cluster straddling position h stays
		// wholly inside the amplified interval.
		bestGap, bestAt := -1.0, b-1
		for i := h - 1; i < b-1; i++ {
			gap := (theta[i+1] - theta[i]) / (theta[i+1] + 1e-12*scale)
			if gap > bestGap {
				bestGap, bestAt = gap, i
			}
		}
		stagnant := worst > prevWorst/1.5
		prevWorst = worst
		if bestGap < 0.02 && b >= maxBlock && stagnant {
			// A degenerate cluster wider than the block cap straddles the
			// boundary: no cut will ever separate it, so further sweeps
			// cannot converge the tail. Bail out to the sound padded
			// result below once this persists (the padded tail barely
			// matters: the bound's maximizing k is far below h here).
			cappedNoGap++
			if cappedNoGap >= 3 {
				break
			}
		} else {
			cappedNoGap = 0
		}
		if stagnant {
			if bestGap < 0.02 && b < maxBlock {
				// The window above position h is a near-flat cluster
				// (possibly a single degenerate eigenvalue spilling past
				// the block): no cut separates inside it. Grow the block
				// until the cluster — and a real gap — fits.
				growths++
				grow := b / 2
				if b+grow > maxBlock {
					grow = maxBlock - b
				}
				blk.grow(b+grow, rng)
				blk.orthonormalize(t, rng)
				b = blk.b
				prevWorst = math.Inf(1)
				continue
			}
			// A usable gap exists but convergence stalls: sharpen the
			// filter (the precision cap above still applies).
			if degree < 256 {
				degree *= 2
			}
		}
		newCut := theta[b-1] // a block no wider than h has no gap above position h
		if bestAt+1 < b {
			newCut = 0.5 * (theta[bestAt] + theta[bestAt+1])
		}
		if low := theta[h-1] * 1.0001; newCut < low {
			newCut = low
		}
		if floor := 1e-6 * scale; newCut < floor {
			newCut = floor
		}
		if ceil := 0.95 * c; newCut > ceil {
			newCut = ceil
		}
		aCut = newCut
	}

	// Out of sweeps. Return the converged prefix with a *sound* tail: pad
	// unconverged positions with the last converged value. The spectrum is
	// ascending, so the padded values never overestimate the true ones and
	// every bound computed from them stays a valid lower bound (slightly
	// weaker at large k, which the k sweep rarely uses).
	p := 0
	for p < h && resid[p] <= tol {
		p++
	}
	if p == 0 {
		return nil, 0, &NotConvergedError{
			Solver: "Chebyshev", Requested: h, Converged: 0,
			Reason: fmt.Sprintf("no Ritz pair converged in %d sweeps", o.MaxIter),
		}
	}
	// Partial convergence: pad the tail soundly (see above) and count the
	// degradation so an operator can see that a run returned a padded —
	// valid but weaker at large k — spectrum.
	obs.AddCtx(ctx, "linalg.cheb.padded_tail", int64(h-p))
	if h > p {
		obs.IncCtx(ctx, "linalg.cheb.padded_solves")
	}
	out := make([]float64, h)
	copy(out, theta[:p])
	for i := p; i < h; i++ {
		out[i] = theta[p-1]
	}
	return clampSpectrum(out, scale), p, nil
}

// clampSpectrum zeroes the tiny negatives PSD round-off produces.
func clampSpectrum(vals []float64, scale float64) []float64 {
	for i := range vals {
		if vals[i] < 0 && vals[i] > -1e-8*scale {
			vals[i] = 0
		}
	}
	return vals
}

// pilotCut estimates where the h-th smallest eigenvalue lies using a short
// Lanczos run; a rough value suffices (the main loop re-adapts it). A
// cancelled ctx cuts the pilot short; the fallback c/2 estimate is fine
// because the caller aborts at its next boundary check anyway.
func pilotCut(ctx context.Context, A Operator, c float64, h int, rng *rand.Rand) float64 {
	n := A.Dim()
	m := 60
	if m > n {
		m = n
	}
	v := make([]float64, n)
	//lint:ignore ctx-loop O(n) random vector fill; the pilot Lanczos loop below checks ctx
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if EqZero(Normalize(v)) {
		return c / 2
	}
	V := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)
	w := make([]float64, n)
	for j := 0; j < m; j++ {
		if ctx.Err() != nil {
			return c / 2
		}
		V = append(V, v)
		A.MatVec(w, v)
		if j > 0 {
			Axpy(-beta[j-1], V[j-1], w)
		}
		a := Dot(w, v)
		alpha = append(alpha, a)
		Axpy(-a, v, w)
		OrthogonalizeAgainst(w, V)
		bnorm := Norm2(w)
		if EqZero(bnorm) || j == m-1 {
			break
		}
		beta = append(beta, bnorm)
		nv := make([]float64, n)
		copy(nv, w)
		Scale(1/bnorm, nv)
		v = nv
	}
	vals, _, err := TridiagEig(alpha, beta[:len(alpha)-1], false)
	if err != nil || len(vals) == 0 || !isFinite(vals[len(vals)/4]) {
		return c / 2
	}
	// Ritz values of a short run overestimate the low end; take an early
	// quantile and pad upward.
	idx := len(vals) / 4
	cut := vals[idx] * 1.5
	if floor := 1e-6 * c; cut < floor {
		cut = floor
	}
	if cut > 0.95*c {
		cut = 0.95 * c
	}
	return cut
}

// chebBlock is the subspace of one solve. Blocks are contiguous row-major
// n×b matrices: entry (i, j) lives at [i*b+j], so a block product streams A
// once for all b columns and the dense kernels walk memory in order. The
// buffers are allocated once per solve and replaced only when the block
// grows.
type chebBlock struct {
	n, b, nh int
	x        []float64   // the basis X
	w        []float64   // A·X for Rayleigh–Ritz; filter scratch
	tmp      []float64   // filter scratch; X·S lands here and swaps with x
	wh       []float64   // W·S in its first nh columns (n×nh), for residuals
	proj     *Dense      // the projected matrix H = XᵀW
	coef     []float64   // Gram–Schmidt projection coefficients
	panel    [][]float64 // one Gram–Schmidt panel, column by column
	r2       []float64   // residual sums of squares
}

// gsPanel is the panel width of the blocked Gram–Schmidt: wide enough that
// the projections against finished panels are GEMM-shaped, narrow enough
// that the serial in-panel Gram–Schmidt stays a small share of the work.
const gsPanel = 16

func newChebBlock(n, b, nh int) *chebBlock {
	blk := &chebBlock{n: n, nh: nh, wh: make([]float64, n*nh), r2: make([]float64, nh)}
	blk.panel = make([][]float64, gsPanel)
	for j := range blk.panel {
		blk.panel[j] = make([]float64, n)
	}
	blk.resize(b)
	return blk
}

// resize sets the block width to b, reallocating the width-dependent
// buffers. It keeps no contents.
func (blk *chebBlock) resize(b int) {
	n := blk.n
	blk.b = b
	blk.x = make([]float64, n*b)
	blk.w = make([]float64, n*b)
	blk.tmp = make([]float64, n*b)
	blk.proj = NewDense(b)
	blk.coef = make([]float64, b*gsPanel)
}

// grow widens the block to nb columns, keeping the current columns and
// filling the new ones with random entries drawn column by column. The
// caller orthonormalizes afterwards.
func (blk *chebBlock) grow(nb int, rng *rand.Rand) {
	n, b, old := blk.n, blk.b, blk.x
	blk.resize(nb)
	for i := 0; i < n; i++ {
		copy(blk.x[i*nb:i*nb+b], old[i*b:(i+1)*b])
	}
	for j := b; j < nb; j++ {
		for i := 0; i < n; i++ {
			blk.x[i*nb+j] = rng.NormFloat64()
		}
	}
}

// filter applies the degree-d scaled Chebyshev filter for the damp interval
// [a, c] to the block in place, using the three-term recurrence
// T_{k+1}(t) = 2t·T_k(t) − T_{k-1}(t) on the affine map sending [a, c] to
// [−1, 1]. Every 16 steps a column whose norm passed 1e100 is rescaled to
// dodge overflow (the amplification at the low end is exponential in d).
// The arithmetic per entry is that of filtering each column on its own.
func (blk *chebBlock) filter(ctx context.Context, t *team, A Operator, a, c float64, degree int) error {
	n, b := blk.n, blk.b
	e := (c - a) / 2
	mid := (c + a) / 2
	prev, cur, y := blk.x, blk.w, blk.tmp // T_0 · x = x
	// T_1 · x = (A − mid)x / e
	t.mulBlock(ctx, A, cur, prev, b, func(lo, hi int) {
		for q := lo * b; q < hi*b; q++ {
			cur[q] = (cur[q] - mid*prev[q]) / e
		}
	})
	for k := 2; k <= degree; k++ {
		if err := ctxErr(ctx, "Chebyshev"); err != nil {
			return err
		}
		t.mulBlock(ctx, A, y, cur, b, func(lo, hi int) {
			for q := lo * b; q < hi*b; q++ {
				y[q] = 2*(y[q]-mid*cur[q])/e - prev[q]
			}
		})
		prev, cur, y = cur, y, prev
		if k%16 == 0 {
			t.split(b, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					if s := colNorm2(cur, n, b, j); s > 1e100 {
						inv := 1 / s
						for i := 0; i < n; i++ {
							cur[i*b+j] *= inv
							prev[i*b+j] *= inv
						}
					}
				}
			})
		}
	}
	blk.x, blk.w, blk.tmp = cur, prev, y
	return ctxErr(ctx, "Chebyshev") // the last product may have bailed out
}

// colNorm2 is Norm2 of column j of the row-major n×b block x, with the
// same scaled accumulation in the same order.
func colNorm2(x []float64, n, b, j int) float64 {
	var scale, ssq float64 = 0, 1
	for i := 0; i < n; i++ {
		v := x[i*b+j]
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

// orthonormalize makes the columns of X orthonormal by blocked classical
// Gram–Schmidt with reorthogonalization (BCGS2). Each panel of gsPanel
// columns goes through two rounds; a round projects the panel against the
// finished panels with GEMM-shaped products, then runs modified
// Gram–Schmidt inside the panel and normalizes. The second round removes
// what the first one's rounding and in-panel cancellation left along the
// finished panels. CholeskyQR would be cheaper but squares the condition
// number, which the filter deliberately drives towards 1e12.
func (blk *chebBlock) orthonormalize(t *team, rng *rand.Rand) {
	n, b := blk.n, blk.b
	for c0 := 0; c0 < b; c0 += gsPanel {
		pw := min(gsPanel, b-c0)
		cols := blk.panel[:pw]
		for round := 0; round < 2; round++ {
			blk.project(t, mat{blk.x[c0:], b}, pw, c0)
			t.split(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					for j, col := range cols {
						col[i] = blk.x[i*b+c0+j]
					}
				}
			})
			for j := range cols {
				blk.finishColumn(t, cols, j, c0, rng)
			}
			t.split(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					for j, col := range cols {
						blk.x[i*b+c0+j] = col[i]
					}
				}
			})
		}
	}
}

// finishColumn orthogonalizes panel column j against the panel columns
// before it and normalizes it. A column that collapses (norm ≤ 1e-10) is
// replaced by a fresh random direction, cleared of the finished panels,
// at most five times; the draws are taken in column order.
func (blk *chebBlock) finishColumn(t *team, cols [][]float64, j, c0 int, rng *rand.Rand) {
	v := cols[j]
	for attempt := 0; ; attempt++ {
		for _, u := range cols[:j] {
			Axpy(-dot4(v, u), u, v)
		}
		if Normalize(v) > 1e-10 || attempt > 4 {
			// Past the last attempt the vector stays as it is; the next
			// sweep's Rayleigh-Ritz cleans it up.
			return
		}
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for pass := 0; pass < 2; pass++ {
			blk.project(t, mat{v, 1}, 1, c0)
		}
	}
}

// dot4 is Dot with four running sums, so that the additions overlap
// instead of each waiting for the one before.
func dot4(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		s0 += xs[0] * ys[0]
		s1 += xs[1] * ys[1]
		s2 += xs[2] * ys[2]
		s3 += xs[3] * ys[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// project removes from the n×pw block p its components along the first c0
// columns of X, which are already orthonormal: C = Qᵀp, then p −= Q·C,
// with C's rows and p's rows split across the team.
func (blk *chebBlock) project(t *team, p mat, pw, c0 int) {
	if c0 == 0 {
		return
	}
	n := blk.n
	q := mat{blk.x, blk.b}
	coef := mat{blk.coef[:c0*pw], pw}
	t.split(c0, func(lo, hi int) { mulTN(coef, q, p, n, lo, hi, pw, false) })
	t.split(n, func(lo, hi int) { mulNN(p, q, coef, c0, lo, hi, pw, true) })
}

// gram sets H = XᵀW. Each entry is one in-order sum over the rows, computed
// on the upper triangle and mirrored, with the rows of H split across the
// team so each worker gets about the same share of the triangle.
func (blk *chebBlock) gram(t *team) {
	n, b := blk.n, blk.b
	h := mat{blk.proj.Data, b}
	x, w := mat{blk.x, b}, mat{blk.w, b}
	parts := min(t.size, b)
	t.run(parts, func(part int) {
		mulTN(h, x, w, n, triangleSplit(b, parts, part), triangleSplit(b, parts, part+1), b, true)
	})
	for i := 0; i < b; i++ {
		for j := i + 1; j < b; j++ {
			h.data[j*b+i] = h.data[i*b+j]
		}
	}
}

// triangleSplit returns the first row of part k when the rows of a b×b
// upper triangle are cut into parts of about equal area; row boundaries
// are even so the kernels' two-row tiles stay whole.
func triangleSplit(b, parts, k int) int {
	if k >= parts {
		return b
	}
	r := int(float64(b) * (1 - math.Sqrt(1-float64(k)/float64(parts))))
	return min(r&^1, b)
}

// rotate applies the Ritz rotation S: X ← X·S for the next sweep, and the
// first nh columns of W·S, which are all the residual test needs.
func (blk *chebBlock) rotate(t *team, S *Dense) {
	n, b, nh := blk.n, blk.b, blk.nh
	s := mat{S.Data, b}
	x, w := mat{blk.x, b}, mat{blk.w, b}
	xs, wh := mat{blk.tmp, b}, mat{blk.wh, nh}
	t.split(n, func(lo, hi int) {
		mulNN(xs, x, s, b, lo, hi, b, false)
		mulNN(wh, w, s, b, lo, hi, nh, false)
	})
	blk.x, blk.tmp = blk.tmp, blk.x
}

// residuals returns ‖W·sᵢ − θᵢ·X·sᵢ‖ for the first nh Ritz pairs, each an
// in-order sum over the rows, with the columns split across the team.
func (blk *chebBlock) residuals(t *team, theta, resid []float64) []float64 {
	n, b, nh := blk.n, blk.b, blk.nh
	x, wh, r2 := blk.x, blk.wh, blk.r2
	t.split(nh, func(lo, hi int) {
		sums := make([]float64, hi-lo) // private, so the workers share no cache line
		for i := 0; i < n; i++ {
			xr, wr := x[i*b+lo:i*b+hi], wh[i*nh+lo:i*nh+hi]
			for j := range sums {
				d := wr[j] - theta[lo+j]*xr[j]
				sums[j] += d * d
			}
		}
		copy(r2[lo:hi], sums)
	})
	resid = resid[:0]
	for _, v := range r2 {
		resid = append(resid, math.Sqrt(v))
	}
	return resid
}

// mat is a row-major view: element (i, j) is data[i*ld+j].
type mat struct {
	data []float64
	ld   int
}

// mulTN sets c(i, j) = Σ_{r<n} a(r, i)·b(r, j) for rows i in [lo, hi) and
// columns j < k (j ≥ i only, when upper). Every entry is one sum taken in
// row order from zero, the same as Dot on the two columns. The rows of a
// and b go by tileRows at a time, so they stay in cache while every tile
// passes over them; a tile parks its sums in c between chunks, which
// leaves each sum's sequence of additions unchanged. Two-by-four tiles
// keep eight independent sums in registers.
func mulTN(c, a, b mat, n, lo, hi, k int, upper bool) {
	first := func(i int) int {
		if upper {
			return i
		}
		return 0
	}
	for i := lo; i < hi; i++ {
		clear(c.data[i*c.ld+first(lo) : i*c.ld+k])
	}
	for r0 := 0; r0 < n; r0 += tileRows {
		r1 := min(r0+tileRows, n)
		for i := lo; i < hi; i += 2 {
			j := first(i)
			if i+1 < hi {
				c0, c1 := c.data[i*c.ld:][:k:k], c.data[(i+1)*c.ld:][:k:k]
				for ; j+4 <= k; j += 4 {
					s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
					s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
					pa, pb := r0*a.ld+i, r0*b.ld+j
					for r := r0; r < r1; r++ {
						ar := a.data[pa : pa+2 : pa+2]
						br := b.data[pb : pb+4 : pb+4]
						a0, a1 := ar[0], ar[1]
						b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
						s00 += a0 * b0
						s01 += a0 * b1
						s02 += a0 * b2
						s03 += a0 * b3
						s10 += a1 * b0
						s11 += a1 * b1
						s12 += a1 * b2
						s13 += a1 * b3
						pa += a.ld
						pb += b.ld
					}
					c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
					c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
				}
			}
			// The columns left over, and an odd last row, one entry at a time.
			for ii := i; ii < min(i+2, hi); ii++ {
				for jj := max(j, first(ii)); jj < k; jj++ {
					s := c.data[ii*c.ld+jj]
					for r := r0; r < r1; r++ {
						s += a.data[r*a.ld+ii] * b.data[r*b.ld+jj]
					}
					c.data[ii*c.ld+jj] = s
				}
			}
		}
	}
}

// tileRows is how many block rows a kernel works through at a time, so
// that its share of the blocks stays in cache.
const tileRows = 64

// mulNN sets c(r, j) = Σ_{q<k} a(r, q)·s(q, j) for rows r in [lo, hi) and
// columns j < m, accumulating from zero in q order — the sums an Axpy of
// s(q, j) times column q per q would build. With sub it subtracts the
// terms from c(r, j) instead. The rows of s go by tileRows at a time, so
// they stay in cache while every tile passes over them; a tile parks its
// sums in c between chunks, which leaves each sum's sequence of additions
// unchanged. Two-by-four tiles keep eight independent sums in registers.
func mulNN(c, a, s mat, k, lo, hi, m int, sub bool) {
	if !sub {
		for r := lo; r < hi; r++ {
			clear(c.data[r*c.ld:][:m])
		}
	}
	for q0 := 0; q0 < k; q0 += tileRows {
		q1 := min(q0+tileRows, k)
		for r := lo; r < hi; r += 2 {
			j := 0
			if r+1 < hi {
				c0, c1 := c.data[r*c.ld:][:m:m], c.data[(r+1)*c.ld:][:m:m]
				a0, a1 := a.data[r*a.ld:][:k:k], a.data[(r+1)*a.ld:][:k:k]
				for ; j+4 <= m; j += 4 {
					s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
					s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
					ps := q0*s.ld + j
					for q := q0; q < q1; q++ {
						x0, x1 := a0[q], a1[q]
						if sub {
							x0, x1 = -x0, -x1
						}
						sq := s.data[ps : ps+4 : ps+4]
						v0, v1, v2, v3 := sq[0], sq[1], sq[2], sq[3]
						s00 += x0 * v0
						s01 += x0 * v1
						s02 += x0 * v2
						s03 += x0 * v3
						s10 += x1 * v0
						s11 += x1 * v1
						s12 += x1 * v2
						s13 += x1 * v3
						ps += s.ld
					}
					c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
					c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
				}
			}
			// The columns left over, and an odd last row, one entry at a time.
			for rr := r; rr < min(r+2, hi); rr++ {
				for jj := j; jj < m; jj++ {
					sum := c.data[rr*c.ld+jj]
					for q := q0; q < q1; q++ {
						x := a.data[rr*a.ld+q]
						if sub {
							x = -x
						}
						sum += x * s.data[q*s.ld+jj]
					}
					c.data[rr*c.ld+jj] = sum
				}
			}
		}
	}
}

// blockOperator is an Operator that applies itself to a whole row-major
// n×b block in one pass. Column j of dst must be bitwise what MatVec gives
// for column j of src; dst and src never alias. Once ctx is done the
// product may stop early, leaving dst partly written.
type blockOperator interface {
	mulBlock(ctx context.Context, t *team, dst, src []float64, b int, finish finishFunc)
}

// finishFunc updates rows [lo, hi) of a block product's destination. A
// block product given a non-nil finish calls it exactly once on every row,
// after the row is final; the filter fuses its three-term update into the
// product this way.
type finishFunc func(lo, hi int)

// team is the fixed set of goroutines one solve runs its kernels on:
// GOMAXPROCS workers counting the caller. The solve starts it once and
// stops it before returning, so a solve spawns a handful of goroutines,
// not one per kernel call.
type team struct {
	size int
	jobs chan func()
	wg   sync.WaitGroup
	cols []float64 // the MatVec adapter's column scratch, two vectors per part
}

func newTeam() *team {
	t := &team{size: max(runtime.GOMAXPROCS(0), 1)}
	if t.size > 1 {
		t.jobs = make(chan func())
		t.wg.Add(t.size - 1)
		for i := 1; i < t.size; i++ {
			go t.work()
		}
	}
	return t
}

func (t *team) work() {
	defer t.wg.Done()
	for f := range t.jobs {
		f()
	}
}

// stop ends the workers and waits for them to exit.
func (t *team) stop() {
	if t.jobs != nil {
		close(t.jobs)
	}
	t.wg.Wait()
}

// run calls body(0), …, body(parts−1) concurrently, part 0 on the calling
// goroutine, and returns once all have finished. parts ≤ t.size.
func (t *team) run(parts int, body func(part int)) {
	var done sync.WaitGroup
	done.Add(parts - 1)
	for p := 1; p < parts; p++ {
		t.jobs <- func() {
			defer done.Done()
			body(p)
		}
	}
	body(0)
	done.Wait()
}

// split cuts [0, n) into one contiguous range per worker and runs body on
// each.
func (t *team) split(n int, body func(lo, hi int)) {
	parts := min(t.size, n)
	if parts <= 1 {
		body(0, n)
		return
	}
	t.run(parts, func(p int) { body(p*n/parts, (p+1)*n/parts) })
}

// mulBlock sets dst = A·src for row-major n×b blocks, with finish (when
// non-nil) applied to every entry as described at finishFunc. It makes one
// pass over A when A is a blockOperator. Otherwise it goes column by
// column through MatVec — gather the column, apply A, scatter the result —
// with the columns split across the team and ctx checked before each
// column, and finishes the rows afterwards. A cancelled product leaves dst
// partly written; the caller checks ctx before using it.
func (t *team) mulBlock(ctx context.Context, A Operator, dst, src []float64, b int, finish finishFunc) {
	if bo, ok := A.(blockOperator); ok {
		bo.mulBlock(ctx, t, dst, src, b, finish)
		return
	}
	n := A.Dim()
	if len(t.cols) < 2*n*t.size {
		t.cols = make([]float64, 2*n*t.size)
	}
	parts := min(t.size, b)
	t.run(parts, func(part int) {
		x := t.cols[2*n*part : 2*n*part+n]
		y := t.cols[2*n*part+n : 2*n*(part+1)]
		for j := part * b / parts; j < (part+1)*b/parts; j++ {
			if ctx.Err() != nil {
				return
			}
			for i := range x {
				x[i] = src[i*b+j]
			}
			A.MatVec(y, x)
			for i, v := range y {
				dst[i*b+j] = v
			}
		}
	})
	if finish != nil {
		t.split(n, finish)
	}
}
