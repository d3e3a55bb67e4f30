package linalg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"graphio/internal/obs"
)

// LanczosOptions tunes SmallestEigsPSDContext.
type LanczosOptions struct {
	// Tol is the relative residual tolerance for accepting a Ritz pair;
	// the absolute tolerance is Tol * max(c, 1). Default 1e-9.
	Tol float64
	// Steps is the inner Krylov dimension per restart. Default
	// min(n, max(2h+20, 60)); doubled automatically when a restart locks
	// no new eigenpair.
	Steps int
	// MaxRestarts bounds the number of deflated restarts. Default 300
	// (the closure check can need on the order of h restarts when many
	// copies of one eigenvalue straddle the h boundary).
	MaxRestarts int
	// Seed seeds the deterministic start-vector generator. Default 1.
	Seed int64
}

func (o *LanczosOptions) withDefaults(n, h int) LanczosOptions {
	out := LanczosOptions{Tol: 1e-9, Steps: 0, MaxRestarts: 300, Seed: 1}
	if o != nil {
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		if o.Steps > 0 {
			out.Steps = o.Steps
		}
		if o.MaxRestarts > 0 {
			out.MaxRestarts = o.MaxRestarts
		}
		if o.Seed != 0 {
			out.Seed = o.Seed
		}
	}
	if out.Steps == 0 {
		out.Steps = 2*h + 20
		if out.Steps < 60 {
			out.Steps = 60
		}
	}
	if out.Steps > n {
		out.Steps = n
	}
	return out
}

// SmallestEigsPSDContext computes the h smallest eigenvalues — with
// multiplicity — of the symmetric positive-semidefinite operator A, given
// an upper bound c ≥ λmax(A) (use CSR.GershgorinUpper for Laplacians).
//
// The method is Lanczos with full reorthogonalization on the complement
// operator B = cI − A, whose *largest* eigenvalues are A's smallest and are
// the ones Krylov methods find first. Converged Ritz vectors are locked and
// deflated, and the iteration restarts in their orthogonal complement; the
// explicit deflation is what recovers repeated eigenvalues (single-vector
// Lanczos alone finds only one copy per eigenvalue), which matters for the
// highly symmetric spectra in this module (hypercubes, butterflies).
//
// The returned slice has length min(h, n), sorted ascending. Cancellation
// is cooperative: ctx is checked at every Lanczos step and restart
// boundary, so a deadline or cancellation interrupts the solve within one
// mat-vec.
func SmallestEigsPSDContext(ctx context.Context, A Operator, c float64, h int, opt *LanczosOptions) ([]float64, error) {
	n := A.Dim()
	if h <= 0 {
		return nil, errors.New("linalg: SmallestEigsPSDContext: h must be positive")
	}
	if h > n {
		h = n
	}
	if n == 0 {
		return nil, nil
	}
	o := opt.withDefaults(n, h)
	rng := rand.New(rand.NewSource(o.Seed))
	scale := c
	if scale < 1 {
		scale = 1
	}
	tol := o.Tol * scale
	// Tighten the shift: Gershgorin can overestimate λmax by 1.5-2×, and
	// the looser the shift the worse the relative gaps at the top of
	// cI − A, slowing convergence on clustered spectra. A short plain
	// Lanczos run estimates λmax cheaply; the algebraically-largest
	// eigenvalues of cI − A are the smallest of A for *any* c, so a slight
	// underestimate costs nothing but convergence speed.
	if est := estimateLargest(ctx, A, rng); est > 0 && 1.05*est < c {
		c = 1.05 * est
	}
	// Krylov growth is capped: the inner eigensolve is O(steps³) and the
	// basis is steps×n, so doubling without bound is a memory and time
	// hazard on big graphs with clustered spectra. Once the cap is hit,
	// stuck restarts loosen the tolerance instead (see below) — bound
	// computations need eigenvalues to ~1e-6 relative, not 1e-12.
	stepsCap := 4*h + 256
	if stepsCap > n {
		stepsCap = n
	}
	if o.Steps > stepsCap {
		stepsCap = o.Steps
	}
	stuck := 0
	B := &ShiftedNeg{A: A, C: c}

	var locked [][]float64   // orthonormal eigenvectors of B
	var lockedVals []float64 // eigenvalues of A (c − Ritz value), unsorted
	steps := o.Steps

	// Solver telemetry, reported once per solve (success or failure) so the
	// restart loop itself stays free of per-iteration observability cost.
	restartsUsed := 0
	defer func() {
		if !obs.Enabled() {
			return
		}
		obs.AddCtx(ctx, "linalg.eigensolver.iterations", int64(restartsUsed))
		obs.AddCtx(ctx, "linalg.lanczos.restarts", int64(restartsUsed))
		obs.SetGaugeCtx(ctx, "linalg.lanczos.locked", float64(len(locked)))
		obs.SetGaugeCtx(ctx, "linalg.lanczos.final_rel_tol", tol/scale)
		obs.SetGaugeCtx(ctx, "linalg.lanczos.steps", float64(steps))
	}()

	// Restarts may need to lock more than h pairs: a restart only sees one
	// copy of each eigenvalue (its Krylov space is generated by a single
	// vector), so extra copies of small eigenvalues surface in later
	// deflated restarts and must displace larger locked values. We therefore
	// run until the *closure check* passes: the smallest eigenvalue found by
	// the latest restart — which is exactly the minimum of the remaining
	// (complement) spectrum — is no smaller than the h-th smallest locked
	// value. Everything still unlocked is then provably ≥ that threshold.
	maxLocked := 3*h + 32
	if maxLocked > n {
		maxLocked = n
	}

	w := make([]float64, n)
	prevTopRitz := math.NaN() // first restart's ritz_delta is dropped as non-finite
	for restart := 0; restart < o.MaxRestarts; restart++ {
		if err := ctxErr(ctx, "Lanczos"); err != nil {
			return nil, err
		}
		if len(locked) >= maxLocked || len(locked) >= n {
			break
		}
		restartsUsed++
		m := steps
		if rem := n - len(locked); m > rem {
			m = rem
		}

		// Fresh random start vector in the complement of the locked space.
		v := make([]float64, n)
		for {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			OrthogonalizeAgainst(v, locked)
			if Normalize(v) > 1e-8 {
				break
			}
		}

		V := make([][]float64, 0, m)
		alpha := make([]float64, 0, m)
		beta := make([]float64, 0, m)
		betaLast := 0.0
		brokeDown := false
		for j := 0; j < m; j++ {
			if err := ctxErr(ctx, "Lanczos"); err != nil {
				return nil, err
			}
			V = append(V, v)
			B.MatVec(w, v)
			if j > 0 {
				Axpy(-beta[j-1], V[j-1], w)
			}
			a := Dot(w, v)
			if !isFinite(a) {
				// A poisoned mat-vec (NaN/Inf leak) corrupts the recurrence
				// coefficients first; surface it as a typed error instead of
				// letting the inner eigensolve chew on garbage.
				return nil, &NonFiniteError{Where: "Lanczos step"}
			}
			alpha = append(alpha, a)
			Axpy(-a, v, w)
			OrthogonalizeAgainst(w, locked)
			OrthogonalizeAgainst(w, V)
			b := Norm2(w)
			if b <= 1e-13*scale {
				brokeDown = true // exact invariant subspace
				break
			}
			if j < m-1 {
				beta = append(beta, b)
				nv := make([]float64, n)
				copy(nv, w)
				Scale(1/b, nv)
				v = nv
			} else {
				betaLast = b
			}
		}
		if brokeDown {
			betaLast = 0
		}
		mEff := len(alpha)
		if mEff == 0 {
			continue
		}
		vals, S, err := TridiagEig(alpha, beta[:mEff-1], true)
		if err != nil {
			return nil, fmt.Errorf("linalg: Lanczos inner eigensolve: %w", err)
		}

		// Lock every converged Ritz pair, scanning from the largest
		// eigenvalue of B (the smallest of A) downwards. Locking interior
		// converged pairs — not just the contiguous top prefix — shrinks
		// the complement much faster on clustered spectra. Soundness of
		// the closure check below only needs the *top* pair's status: when
		// it converged, its value is the complement's smallest A-eigenvalue.
		lockedThisRestart := 0
		topConverged := false
		firstA := math.Inf(1) // top-of-complement eigenvalue when converged
		// Only the top ~2h Ritz positions can hold candidates for the h
		// smallest A-eigenvalues; the bottom of B's Ritz spectrum is A's
		// *largest* end — it also converges fast and must not be locked.
		floor := mEff - 2*h
		if floor < 0 {
			floor = 0
		}
		for i := mEff - 1; i >= floor && len(locked) < maxLocked && lockedThisRestart < 2*h; i-- {
			resid := math.Abs(betaLast * S.At(mEff-1, i))
			if resid > tol {
				continue
			}
			if i == mEff-1 {
				topConverged = true
				firstA = c - vals[i]
			}
			// A converged value already above the current h-th smallest can
			// never enter the answer; leaving it unlocked saves slots and
			// orthogonalization work (the closure check ends the loop
			// before it could reconverge many times).
			if len(lockedVals) >= h && c-vals[i] >= kthSmallest(lockedVals, h)-1e-10*scale {
				if i == mEff-1 && lockedThisRestart == 0 {
					lockedThisRestart++ // count as progress: the restart did converge
				}
				continue
			}
			y := make([]float64, n)
			for j := 0; j < mEff; j++ {
				Axpy(S.At(j, i), V[j], y)
			}
			OrthogonalizeAgainst(y, locked)
			if Normalize(y) < 1e-8 {
				continue // numerically dependent on the locked space; skip
			}
			locked = append(locked, y)
			lockedVals = append(lockedVals, c-vals[i])
			lockedThisRestart++
		}
		if obs.EventsEnabled() {
			topRitz := c - vals[mEff-1]
			obs.Probe("linalg.lanczos").IterCtx(ctx, int64(restart),
				obs.FI("locked", int64(len(locked))),
				obs.FI("locked_new", int64(lockedThisRestart)),
				obs.FI("steps", int64(mEff)),
				obs.F("top_resid", math.Abs(betaLast*S.At(mEff-1, mEff-1))),
				obs.F("top_ritz", topRitz),
				obs.F("ritz_delta", topRitz-prevTopRitz))
			prevTopRitz = topRitz
		}
		if lockedThisRestart == 0 {
			if !brokeDown {
				// Nothing converged: enlarge the Krylov space and retry;
				// once at the cap, loosen the acceptance tolerance — a
				// clustered spectrum can keep residuals hovering above an
				// overly strict threshold indefinitely.
				if steps < stepsCap {
					steps *= 2
					if steps > stepsCap {
						steps = stepsCap
					}
				} else {
					stuck++
					if stuck >= 2 && tol < 1e-5*scale {
						tol *= 10
						stuck = 0
					}
				}
			}
			continue
		}
		stuck = 0
		if len(locked) >= h && topConverged {
			// Closure check (see comment above maxLocked): everything
			// still unlocked is ≥ firstA, the complement's smallest
			// A-eigenvalue this restart; once that clears the h-th
			// smallest locked value, the answer is complete.
			kth := kthSmallest(lockedVals, h)
			if firstA >= kth-1e-10*scale {
				break
			}
		}
	}

	if len(lockedVals) < h && len(lockedVals) < n {
		partial := make([]float64, len(lockedVals))
		copy(partial, lockedVals)
		insertionSort(partial)
		return nil, &NotConvergedError{
			Solver: "Lanczos", Requested: h, Converged: len(lockedVals),
			Partial: partial,
			Reason:  fmt.Sprintf("restart budget %d exhausted", o.MaxRestarts),
		}
	}

	out := make([]float64, len(lockedVals))
	copy(out, lockedVals)
	insertionSort(out)
	if len(out) > h {
		out = out[:h]
	}
	return out, nil
}

// kthSmallest returns the k-th smallest element (1-based) of x without
// modifying it.
func kthSmallest(x []float64, k int) float64 {
	tmp := make([]float64, len(x))
	copy(tmp, x)
	insertionSort(tmp)
	return tmp[k-1]
}

// estimateLargest estimates λmax(A) with a 40-step Lanczos run (the
// largest Ritz value of that Krylov space is accurate to far better than
// the 5% slack its caller applies). Returns 0 on degenerate input or once
// ctx is done.
func estimateLargest(ctx context.Context, A Operator, rng *rand.Rand) float64 {
	vals := ritzValues(ctx, A, 40, rng)
	if len(vals) == 0 {
		return 0
	}
	return vals[len(vals)-1]
}

// ritzValues runs min(m, A.Dim()) steps of Lanczos with full
// reorthogonalization from a start vector drawn from rng and returns the
// Ritz values, ascending: the short run behind pilotCut and
// estimateLargest. It returns nil on a zero start vector, on a failed
// tridiagonal solve, or once ctx is done.
func ritzValues(ctx context.Context, A Operator, m int, rng *rand.Rand) []float64 {
	n := A.Dim()
	m = min(m, n)
	v := make([]float64, n)
	//lint:ignore ctx-loop O(n) random vector fill; the Lanczos loop below checks ctx
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if EqZero(Normalize(v)) {
		return nil
	}
	V := make([][]float64, 0, m)
	alpha := make([]float64, 0, m)
	beta := make([]float64, 0, m)
	w := make([]float64, n)
	for j := 0; j < m; j++ {
		if ctx.Err() != nil {
			return nil
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
		b := Norm2(w)
		if EqZero(b) || j == m-1 {
			break
		}
		beta = append(beta, b)
		nv := make([]float64, n)
		copy(nv, w)
		Scale(1/b, nv)
		v = nv
	}
	vals, _, err := TridiagEig(alpha, beta[:len(alpha)-1], false)
	if err != nil {
		return nil
	}
	return vals
}

func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
