package core

// Escalation-chain coverage: forced solver failures injected through
// internal/faultinject must degrade gracefully — retry, switch solvers,
// fall back to dense or the Theorem 5 route — and every degradation must be
// visible in Result.Fallbacks and the core.fallback.* counters.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"graphio/internal/faultinject"
	"graphio/internal/gen"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// failFastSolverOpts keeps the faulted iterative attempts cheap and keeps
// Lanczos's Krylov space far below the full dimension (at full dimension a
// breakdown would mark unconverged garbage as converged).
func failFastSolverOpts(o *Options) {
	o.Lanczos = &linalg.LanczosOptions{MaxRestarts: 2, Steps: 8}
	o.Chebyshev = &linalg.ChebOptions{MaxIter: 2, Degree: 6}
}

func TestFallbackChainSurvivesForcedLanczosNonConvergence(t *testing.T) {
	// Per-test scope instead of obs.Reset(): the fallback counters are read
	// from this scope, so concurrent tests (or the /progress churn suite)
	// touching the default registry cannot interfere and nothing needs a
	// destructive global reset.
	obs.Enable(true)
	defer obs.Enable(false)
	sc := obs.NewScope(t.Name())
	defer sc.Close()
	ctx := obs.WithScope(context.Background(), sc)
	// faultinject is deliberately unscoped (process-level fault counters),
	// so that one assertion uses a before/after delta on the default
	// registry instead.
	faultedBefore := obs.Default().Counter("faultinject.faulted_matvecs")
	g := hypercubeDAG(6)
	opt := Options{M: 4, MaxK: 8, Solver: SolverLanczos}
	failFastSolverOpts(&opt)
	// Noise on every matvec: each iterative attempt (Lanczos, its perturbed
	// retry, Chebyshev) produces finite garbage and fails to converge. The
	// dense fallback builds its own matrix, bypassing the wrapper.
	opt.WrapOperator = func(op linalg.Operator) linalg.Operator {
		return &faultinject.Op{A: op, NoiseFrom: 1, NoiseAmp: 5}
	}
	res, err := SpectralBoundContext(ctx, g, opt)
	if err != nil {
		t.Fatalf("bound under injected Lanczos failure: %v", err)
	}
	if !res.Degraded || len(res.Fallbacks) == 0 {
		t.Fatalf("Degraded = %v, Fallbacks = %v: degradation not reported", res.Degraded, res.Fallbacks)
	}
	if res.SolverUsed != SolverDense {
		t.Errorf("SolverUsed = %v, want dense fallback", res.SolverUsed)
	}

	// The degraded run must still produce the *correct* bound: the dense
	// fallback sees the clean Laplacian, so it must agree with an unfaulted
	// dense solve exactly.
	clean, err := SpectralBoundContext(context.Background(), g, Options{M: 4, MaxK: 8, Solver: SolverDense})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bound-clean.Bound) > 1e-9*(1+math.Abs(clean.Bound)) {
		t.Errorf("degraded bound %g != clean dense bound %g", res.Bound, clean.Bound)
	}

	if n := sc.Counter("core.fallback.retry"); n < 1 {
		t.Errorf("core.fallback.retry = %d, want ≥ 1", n)
	}
	if n := sc.Counter("core.fallback.solver"); n < 1 {
		t.Errorf("core.fallback.solver = %d, want ≥ 1", n)
	}
	if n := sc.Counter("core.fallback.dense"); n < 1 {
		t.Errorf("core.fallback.dense = %d, want ≥ 1", n)
	}
	if n := sc.Counter("core.fallback.total"); n < 3 {
		t.Errorf("core.fallback.total = %d, want ≥ 3", n)
	}
	if n := obs.Default().Counter("faultinject.faulted_matvecs") - faultedBefore; n < 1 {
		t.Errorf("faultinject.faulted_matvecs delta = %d, want ≥ 1", n)
	}
}

func TestTheorem5RouteWhenDenseFallbackDisabled(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	sc := obs.NewScope(t.Name())
	defer sc.Close()
	ctx := obs.WithScope(context.Background(), sc)
	g := hypercubeDAG(6)
	opt := Options{M: 4, MaxK: 8, Solver: SolverChebyshev, DenseFallbackCap: -1}
	failFastSolverOpts(&opt)
	// The clean Theorem 5 solve needs a real sweep budget; the faulted
	// attempts still fail fast because the noise swamps every tolerance.
	opt.Chebyshev = &linalg.ChebOptions{MaxIter: 30, Degree: 8}
	// Fault the three normalized-Laplacian attempts (Chebyshev, its retry,
	// Lanczos); the Theorem 5 route's solve on the original Laplacian is the
	// fourth wrap and runs clean.
	wraps := 0
	opt.WrapOperator = func(op linalg.Operator) linalg.Operator {
		wraps++
		if wraps <= 3 {
			return &faultinject.Op{A: op, NoiseFrom: 1, NoiseAmp: 5}
		}
		return op
	}
	res, err := SpectralBoundContext(ctx, g, opt)
	if err != nil {
		t.Fatalf("bound via Theorem 5 route: %v", err)
	}
	if res.Kind != laplacian.Original {
		t.Errorf("Kind = %v, want Original (Theorem 5 route)", res.Kind)
	}
	if !res.Degraded {
		t.Error("Degraded not set")
	}
	if n := sc.Counter("core.fallback.theorem5"); n != 1 {
		t.Errorf("core.fallback.theorem5 = %d, want 1", n)
	}

	// The Theorem 5 route must agree with directly requesting the original
	// Laplacian on a clean operator.
	clean, err := SpectralBoundContext(context.Background(), g, Options{M: 4, MaxK: 8, Solver: SolverDense, Laplacian: laplacian.Original})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bound-clean.Bound) > 1e-6*(1+math.Abs(clean.Bound)) {
		t.Errorf("Theorem 5 route bound %g != clean original-Laplacian bound %g", res.Bound, clean.Bound)
	}

	// The degraded spectrum carries its own divisor: re-evaluating it at
	// other (M, p) must apply max out-degree, never Theorem 4's 1.
	if res.Divisor != float64(g.MaxOutDeg()) {
		t.Errorf("Divisor = %g, want max out-degree %d", res.Divisor, g.MaxOutDeg())
	}
	for _, M := range []int{1, 2, 6} {
		for _, p := range []int{1, 2} {
			want, _, _ := BoundFromEigenvalues(res.Eigenvalues, g.N(), M, p, float64(g.MaxOutDeg()))
			if got := res.At(ctx, M, p).Bound; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("At(%d, %d) = %g, want Theorem 5 bound %g", M, p, got, want)
			}
		}
	}
}

func TestPerturbedSeedRetryRecoversTransientFault(t *testing.T) {
	g := hypercubeDAG(5)
	opt := Options{M: 4, MaxK: 6, Solver: SolverChebyshev}
	failFastSolverOpts(&opt)
	opt.Chebyshev = &linalg.ChebOptions{MaxIter: 30, Degree: 8}
	// Only the first attempt sees a poisoned operator; the retry runs clean
	// and must succeed with the originally requested solver.
	wraps := 0
	opt.WrapOperator = func(op linalg.Operator) linalg.Operator {
		wraps++
		if wraps == 1 {
			return &faultinject.Op{A: op, NaNFrom: 1}
		}
		return op
	}
	res, err := SpectralBoundContext(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("bound after transient fault: %v", err)
	}
	if res.SolverUsed != SolverChebyshev {
		t.Errorf("SolverUsed = %v, want chebyshev (retry, not solver switch)", res.SolverUsed)
	}
	if !res.Degraded || len(res.Fallbacks) != 1 {
		t.Errorf("Degraded = %v, Fallbacks = %v: want exactly the retry event", res.Degraded, res.Fallbacks)
	}
	if wraps != 2 {
		t.Errorf("WrapOperator invoked %d times, want 2", wraps)
	}
}

func TestNoFallbackFailsFast(t *testing.T) {
	g := hypercubeDAG(5)
	opt := Options{M: 4, MaxK: 6, Solver: SolverChebyshev, NoFallback: true}
	failFastSolverOpts(&opt)
	wraps := 0
	opt.WrapOperator = func(op linalg.Operator) linalg.Operator {
		wraps++
		return &faultinject.Op{A: op, NoiseFrom: 1, NoiseAmp: 5}
	}
	_, err := SpectralBoundContext(context.Background(), g, opt)
	if err == nil {
		t.Fatal("NoFallback solve under noise succeeded")
	}
	var nc *linalg.NotConvergedError
	if !errors.As(err, &nc) {
		t.Fatalf("error = %v (%T), want *linalg.NotConvergedError", err, err)
	}
	if wraps != 1 {
		t.Errorf("WrapOperator invoked %d times, want 1 (no retries)", wraps)
	}
}

func TestCancelledContextAbortsWithoutFallbacks(t *testing.T) {
	g := hypercubeDAG(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SpectralBoundContext(ctx, g, Options{M: 4, MaxK: 6, Solver: SolverChebyshev})
	if err == nil {
		t.Fatal("cancelled bound succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled in chain", err)
	}
}

func TestDeadlineDuringSolveIsNotMasked(t *testing.T) {
	g := hypercubeDAG(6)
	opt := Options{M: 4, MaxK: 8, Solver: SolverLanczos}
	opt.WrapOperator = func(op linalg.Operator) linalg.Operator {
		return &faultinject.Op{A: op, StallFrom: 1, Stall: 2 * time.Millisecond}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := SpectralBoundContext(ctx, g, opt)
	if err == nil {
		t.Fatal("stalled bound beat the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded in chain (fallbacks must not mask deadlines)", err)
	}
}

// When Chebyshev runs out of sweeps it pads the unconverged tail with the
// last converged Ritz value. That tail is sound but weaker, so the
// spectrum must say so: Degraded, with a Fallbacks entry counting the
// converged pairs. It keeps Chebyshev's values, and the escalation chain
// does not run.
func TestPaddedChebyshevTailIsFlagged(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	sc := obs.NewScope(t.Name())
	defer sc.Close()
	ctx := obs.WithScope(context.Background(), sc)
	g := gen.Hypercube(6)
	cheb := &linalg.ChebOptions{MaxIter: 1}
	s, err := SolveSpectrum(ctx, g, Options{MaxK: 20, Solver: SolverChebyshev, Chebyshev: cheb})
	if err != nil {
		t.Fatal(err)
	}
	L, err := laplacian.BuildCSR(g, laplacian.OutDegreeNormalized)
	if err != nil {
		t.Fatal(err)
	}
	want, converged, err := linalg.ChebFilteredSmallestPadded(context.Background(), L, L.GershgorinUpper(), 20, cheb)
	if err != nil {
		t.Fatal(err)
	}
	if converged <= 0 || converged >= 20 {
		t.Fatalf("%d of 20 Ritz pairs converged; the case needs a padded tail", converged)
	}
	if !slices.Equal(s.Eigenvalues, want) {
		t.Errorf("eigenvalues %v, want Chebyshev's own %v", s.Eigenvalues, want)
	}
	for _, v := range s.Eigenvalues[converged:] {
		if v != want[converged-1] {
			t.Fatalf("tail %v does not repeat the last converged value %v", s.Eigenvalues[converged:], want[converged-1])
		}
	}
	note := fmt.Sprintf("converged %d of 20 Ritz pairs", converged)
	if !s.Degraded || len(s.Fallbacks) != 1 || !strings.Contains(s.Fallbacks[0], note) {
		t.Fatalf("Degraded = %v, Fallbacks = %q; want one entry saying %q", s.Degraded, s.Fallbacks, note)
	}
	if s.SolverUsed != SolverChebyshev || s.Kind != laplacian.OutDegreeNormalized {
		t.Errorf("solved by %v on %v, want Chebyshev on the normalized Laplacian with no escalation", s.SolverUsed, s.Kind)
	}
	if n := sc.Counter("core.fallback.padded"); n != 1 {
		t.Errorf("core.fallback.padded = %d, want 1", n)
	}
}
