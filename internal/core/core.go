// Package core implements the paper's primary contribution: spectral lower
// bounds on the I/O complexity of computation graphs (Jain & Zaharia,
// SPAA 2020).
//
// For a computation graph G with n vertices evaluated on a machine with fast
// memory of size M, the optimal non-trivial I/O J*_G is bounded below, for
// every k ≤ n, by
//
//	J*_G ≥ ⌊n/k⌋ · Σ_{i=1..k} λ_i(L̃) − 2kM          (Theorem 4)
//
// where λ_1 ≤ λ_2 ≤ … are the eigenvalues of the out-degree-normalized
// Laplacian L̃. Theorem 5 trades tightness for convenience by using the
// plain Laplacian L and dividing by the maximum out-degree; Theorem 6
// extends the bound to p processors by replacing ⌊n/k⌋ with ⌊n/(kp)⌋.
// The bound is maximized over k ∈ {1..h} (the paper uses h = 100; see
// §6.1/§6.5 — the best k is empirically far below 100).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// Solver selects the eigenvalue backend. The numeric values are stable:
// experiments.Config.Hash hashes int(Solver), so a removed solver leaves
// its value unused rather than renumbering the rest.
type Solver int

const (
	// SolverAuto uses the dense solver below Options.DenseCutoff vertices
	// and Chebyshev-filtered subspace iteration above it.
	SolverAuto Solver = iota
	// SolverDense computes the full spectrum with the O(n^3) dense solver.
	SolverDense
	// SolverLanczos computes the h smallest eigenvalues with deflated,
	// fully reorthogonalized Lanczos — the paper's "Lanczos-Arnoldi" path.
	SolverLanczos
	_ // unused: the values after it must not shift
	// SolverChebyshev computes the h smallest eigenvalues with
	// Chebyshev-filtered subspace iteration — a block method that handles
	// the clustered, high-multiplicity spectra of structured computation
	// graphs (butterflies, hypercubes, Strassen) orders of magnitude
	// faster than single-vector Lanczos. The SolverAuto default above the
	// dense cutoff.
	SolverChebyshev
)

// solvers lists every valid Solver, in numeric order.
var solvers = []Solver{SolverAuto, SolverDense, SolverLanczos, SolverChebyshev}

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverDense:
		return "dense"
	case SolverLanczos:
		return "lanczos"
	case SolverChebyshev:
		return "chebyshev"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ParseSolver maps a name as Solver.String prints it back to the Solver,
// ignoring case and surrounding space. The empty string means SolverAuto.
func ParseSolver(name string) (Solver, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return SolverAuto, nil
	}
	for _, s := range solvers {
		if s.String() == key {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown solver %q (want auto, dense, lanczos or chebyshev)", name)
}

// NonFiniteError reports NaN or ±Inf contamination detected at a core phase
// boundary (eigensolve output, k-sweep bound). It is the core-level
// counterpart of linalg.NonFiniteError.
type NonFiniteError struct {
	// Where locates the check that fired.
	Where string
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("core: non-finite value detected at %s", e.Where)
}

// Options configures SolveSpectrum and SpectralBound.
type Options struct {
	// M is the fast-memory size in elements. SpectralBound requires
	// M ≥ 1; SolveSpectrum ignores it.
	M int
	// MaxK is h, the number of smallest eigenvalues computed and the upper
	// end of the k sweep. Default 100 (paper §6.1).
	MaxK int
	// Laplacian selects Theorem 4 (OutDegreeNormalized, the default) or
	// Theorem 5 (Original, dividing by the maximum out-degree).
	Laplacian laplacian.Kind
	// Processors is p in Theorem 6. Default 1 (serial bound).
	// SolveSpectrum ignores it.
	Processors int
	// Solver selects the eigenvalue backend. Default SolverAuto.
	Solver Solver
	// DenseCutoff is the vertex count at or below which SolverAuto picks
	// the dense path. Default 1024.
	DenseCutoff int
	// Lanczos overrides the Lanczos solver options.
	Lanczos *linalg.LanczosOptions
	// Chebyshev overrides the filtered-subspace solver options.
	Chebyshev *linalg.ChebOptions
	// WrapOperator, when non-nil, wraps the sparse Laplacian operator
	// before it reaches an iterative eigensolver. It is applied fresh for
	// every solver attempt, so stateful wrappers (fault injectors, probes)
	// observe each attempt independently. The dense path builds its own
	// matrix and is never wrapped.
	WrapOperator func(linalg.Operator) linalg.Operator
	// DenseFallbackCap is the largest vertex count for which the escalation
	// chain may fall back to the O(n^3) dense solver after every iterative
	// solver has failed. Default 2048; negative disables the dense fallback.
	DenseFallbackCap int
	// NoFallback disables the escalation chain entirely: the first solver
	// failure is returned as an error, matching pre-fallback behavior.
	NoFallback bool
}

func (o Options) withDefaults() Options {
	if o.MaxK == 0 {
		o.MaxK = 100
	}
	if o.Processors == 0 {
		o.Processors = 1
	}
	if o.DenseCutoff == 0 {
		o.DenseCutoff = 1024
	}
	if o.DenseFallbackCap == 0 {
		o.DenseFallbackCap = 2048
	}
	return o
}

// Spectrum is the part of a spectral bound that depends only on the graph,
// the Laplacian, h and the solver: the smallest eigenvalues and where they
// came from. Theorems 4-6 are arithmetic on it; At evaluates them for any
// memory size and processor count.
type Spectrum struct {
	// Eigenvalues holds the smallest min(h, n) Laplacian eigenvalues,
	// ascending, after clamping round-off negatives to zero.
	Eigenvalues []float64
	// N is the graph's vertex count.
	N int
	// Kind is the Laplacian actually solved. After the escalation chain's
	// Theorem 5 route it is Original even if OutDegreeNormalized was asked
	// for.
	Kind laplacian.Kind
	// Divisor is Kind's Theorem 5 divisor: the maximum out-degree for
	// Original (1 on an edgeless graph), 1 for OutDegreeNormalized.
	Divisor float64
	// SolverUsed is the solver that produced Eigenvalues.
	SolverUsed Solver
	// Degraded reports that the escalation chain had to deviate from the
	// requested configuration (seed retry, solver switch, dense fallback,
	// or Theorem 5 route) to produce this spectrum, or that Chebyshev ran
	// out of sweeps and padded the unconverged tail.
	Degraded bool
	// Fallbacks lists the degradation events, in order, human-readably.
	Fallbacks []string
}

// Result reports a spectral lower bound and the spectrum behind it.
type Result struct {
	// Spectrum is what the bound was evaluated on; its fields
	// (Eigenvalues, N, Kind, SolverUsed, Degraded, Fallbacks) read
	// through Result.
	Spectrum
	// Bound is the I/O lower bound: max(0, max_k bound(k)).
	Bound float64
	// BestK is the k achieving Bound, or 0 when every k gives a
	// non-positive value (Bound == 0).
	BestK int
	// Raw is max_k bound(k) before clamping at zero; negative values mean
	// the spectral method certifies nothing for this (G, M).
	Raw float64
	// PerK[k-1] is the bound value for that k.
	PerK []float64
	// M and Processors are the memory size and processor count the bound
	// was evaluated at.
	M          int
	Processors int
}

// SolveSpectrum computes the h = Options.MaxK smallest eigenvalues of g's
// Laplacian (Options.Laplacian) and records their provenance. It reads
// neither Options.M nor Options.Processors, so one spectrum serves every
// memory size and processor count through At.
//
// The context is threaded into every eigensolve and checked at iteration
// boundaries; cancellation aborts the solve immediately without attempting
// fallbacks. When a solver fails for any other reason and
// Options.NoFallback is unset, an escalation chain tries progressively more
// robust configurations: one retry with a perturbed start seed, the
// remaining iterative solvers (Lanczos, then Chebyshev), the dense solver
// when n ≤ Options.DenseFallbackCap, and finally the Theorem 5 route
// (original Laplacian with the max-out-degree divisor) when Theorem 4 was
// requested. Every degradation is recorded in Spectrum.Fallbacks and
// counted under the core.fallback.* observability counters.
//
// When ctx carries a Memo (WithMemo) and Options.WrapOperator is nil, a
// spectrum the Memo already holds is returned as a copy without solving,
// even under an expired context, and a successful solve is stored in it.
// Hits and misses count under core.memo.hits and core.memo.misses.
func SolveSpectrum(ctx context.Context, g *graph.Graph, opt Options) (*Spectrum, error) {
	opt = opt.withDefaults()
	if opt.MaxK < 0 {
		return nil, errors.New("core: Options.MaxK must be ≥ 0")
	}
	n := g.N()
	if n == 0 {
		return &Spectrum{Kind: opt.Laplacian, Divisor: 1, SolverUsed: opt.Solver}, nil
	}
	h := opt.MaxK
	if h > n {
		h = n
	}

	solver := opt.Solver
	if solver == SolverAuto {
		if n <= opt.DenseCutoff {
			solver = SolverDense
		} else {
			solver = SolverChebyshev
		}
	}
	if solver != SolverDense && solver != SolverLanczos && solver != SolverChebyshev {
		return nil, fmt.Errorf("core: unknown solver %v", opt.Solver)
	}

	memo := memoFrom(ctx)
	if opt.WrapOperator != nil {
		memo = nil // a wrapper keeps per-attempt state, so every solve must reach it
	}
	var key memoKey
	if memo != nil {
		key = newMemoKey(g, opt)
		if s, ok := memo.get(key); ok {
			obs.IncCtx(ctx, "core.memo.hits")
			return s, nil
		}
		obs.IncCtx(ctx, "core.memo.misses")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: spectral bound interrupted: %w", err)
	}

	sp := obs.StartSpanCtx(ctx, "core.spectrum")
	sp.SetInt("n", int64(n))
	sp.SetInt("h", int64(h))
	sp.SetStr("solver", solver.String())
	sp.SetStr("laplacian", opt.Laplacian.String())
	defer sp.End()

	lambda, used, kind, events, err := escalate(ctx, g, solver, opt.Laplacian, h, opt, sp)
	if err != nil {
		return nil, err
	}
	if err := linalg.CheckFinite("core eigensolve output", lambda); err != nil {
		return nil, &NonFiniteError{Where: "eigensolve output"}
	}
	for i, l := range lambda {
		if l < 0 {
			lambda[i] = 0 // PSD spectrum; clamp eigensolver round-off
		}
	}
	divisor := 1.0
	if kind == laplacian.Original && g.MaxOutDeg() > 0 {
		divisor = float64(g.MaxOutDeg()) // an edgeless graph keeps 1; its spectrum is all zeros
	}
	s := &Spectrum{
		Eigenvalues: lambda,
		N:           n,
		Kind:        kind,
		Divisor:     divisor,
		SolverUsed:  used,
		Degraded:    len(events) > 0,
		Fallbacks:   events,
	}
	if memo != nil {
		memo.put(key, s)
	}
	return s, nil
}

// At evaluates the Theorem 4/5/6 bound on s for fast memory M and p
// processors, dividing by s.Divisor. p < 1 counts as 1. The Result shares
// s's Eigenvalues slice.
func (s *Spectrum) At(ctx context.Context, M, p int) *Result {
	if p < 1 {
		p = 1
	}
	sp := obs.StartSpanCtx(ctx, "core.bound")
	ksp := sp.Child("ksweep")
	bound, bestK, perK := BoundFromEigenvaluesContext(ctx, s.Eigenvalues, s.N, M, p, s.Divisor)
	ksp.End()
	sp.SetFloat("bound", bound)
	sp.SetInt("best_k", int64(bestK))
	sp.End()
	return &Result{Spectrum: *s, Bound: bound, BestK: bestK, Raw: rawMax(perK), PerK: perK, M: M, Processors: p}
}

// SpectralBound computes the paper's spectral I/O lower bound for g.
func SpectralBound(g *graph.Graph, opt Options) (*Result, error) {
	return SpectralBoundContext(context.Background(), g, opt)
}

// SpectralBoundContext is SolveSpectrum followed by At(opt.M,
// opt.Processors): the bound at one memory size, with cancellation and
// graceful degradation. Callers that want several M or p solve once and
// call At for each.
func SpectralBoundContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if opt.M < 1 {
		return nil, errors.New("core: Options.M must be ≥ 1")
	}
	if opt.Processors < 0 {
		return nil, errors.New("core: Options.Processors must be ≥ 0")
	}
	s, err := SolveSpectrum(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	res := s.At(ctx, opt.M, opt.Processors)
	if math.IsNaN(res.Bound) || math.IsInf(res.Bound, 0) {
		return nil, &NonFiniteError{Where: "k-sweep bound"}
	}
	return res, nil
}

// escalate produces the ascending h smallest Laplacian eigenvalues for g,
// escalating through fallbacks when solvers fail. It returns the solver
// and Laplacian kind that actually succeeded plus the degradation events.
func escalate(ctx context.Context, g *graph.Graph, solver Solver, kind laplacian.Kind, h int, opt Options, sp *obs.Span) ([]float64, Solver, laplacian.Kind, []string, error) {
	var events []string

	if solver == SolverDense {
		lambda, err := denseSpectrum(ctx, g, kind, h, sp)
		if err == nil {
			return lambda, SolverDense, kind, nil, nil
		}
		if opt.NoFallback {
			return nil, solver, kind, nil, err
		}
		// The dense path has no iteration budget to exhaust; a failure here
		// means a degenerate matrix. The iterative chain below is still
		// worth a shot before giving up.
		events = recordFallback(ctx, events, "solver",
			fmt.Sprintf("dense solve failed (%v); escalating to iterative solvers", err))
		solver = SolverChebyshev
	}

	lambda, used, evs, err := iterativeChain(ctx, g, solver, kind, h, opt, sp)
	events = append(events, evs...)
	if err == nil {
		return lambda, used, kind, events, nil
	}
	if opt.NoFallback || isInterrupt(err) {
		return nil, used, kind, events, err
	}

	// Terminal fallback: the Theorem 5 route. The original Laplacian with
	// the max-out-degree divisor is a sound (if looser) bound whenever the
	// normalized solve cannot be completed.
	if kind == laplacian.OutDegreeNormalized {
		events = recordFallback(ctx, events, "theorem5",
			fmt.Sprintf("all solvers failed on the normalized Laplacian (%v); falling back to the Theorem 5 bound on the original Laplacian", err))
		lambda, used, evs, err5 := iterativeChain(ctx, g, SolverChebyshev, laplacian.Original, h, opt, sp)
		events = append(events, evs...)
		if err5 == nil {
			return lambda, used, laplacian.Original, events, nil
		}
		if isInterrupt(err5) {
			return nil, used, laplacian.Original, events, err5
		}
		err = errors.Join(err, err5)
	}
	return nil, used, kind, events, fmt.Errorf("core: all eigensolve fallbacks exhausted: %w", err)
}

// iterativeChain tries the requested iterative solver, a perturbed-seed
// retry of it, the remaining iterative solvers, and finally the dense
// solver when n is below Options.DenseFallbackCap.
func iterativeChain(ctx context.Context, g *graph.Graph, requested Solver, kind laplacian.Kind, h int, opt Options, sp *obs.Span) ([]float64, Solver, []string, error) {
	lsp := sp.Child("laplacian")
	L, err := laplacian.BuildCSR(g, kind)
	lsp.End()
	if err != nil {
		return nil, requested, nil, fmt.Errorf("core: building Laplacian: %w", err)
	}
	c := L.GershgorinUpper()

	attempts := []solveAttempt{{requested, false}}
	if !opt.NoFallback {
		attempts = append(attempts, solveAttempt{requested, true})
		for _, s := range []Solver{SolverLanczos, SolverChebyshev} {
			if s != requested {
				attempts = append(attempts, solveAttempt{s, false})
			}
		}
	}

	var events []string
	var firstErr error
	used := requested
	for i, at := range attempts {
		if err := ctx.Err(); err != nil {
			return nil, used, events, fmt.Errorf("core: eigensolve interrupted: %w", err)
		}
		used = at.solver
		lambda, converged, err := attemptSolve(ctx, L, c, h, at, opt, sp)
		if err == nil {
			if ferr := linalg.CheckFinite("eigensolve output", lambda); ferr != nil {
				obs.IncCtx(ctx, "core.fallback.nonfinite")
				err = &NonFiniteError{Where: fmt.Sprintf("%v eigensolve output", at.solver)}
			} else {
				if pad := len(lambda) - converged; pad > 0 {
					events = recordFallback(ctx, events, "padded",
						fmt.Sprintf("%v converged %d of %d Ritz pairs; the other %d repeat the last converged value (sound, but weaker at large k)", at.solver, converged, len(lambda), pad))
				}
				return lambda, at.solver, events, nil
			}
		}
		if isInterrupt(err) {
			if errors.Is(err, context.DeadlineExceeded) {
				obs.IncCtx(ctx, "core.deadline.hit")
			}
			return nil, used, events, fmt.Errorf("core: %v eigensolve: %w", at.solver, err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("core: %v eigensolve: %w", at.solver, err)
		}
		if opt.NoFallback {
			return nil, used, events, firstErr
		}
		// Describe the step the chain takes next, if any.
		if i+1 < len(attempts) {
			next := attempts[i+1]
			if next.perturb {
				events = recordFallback(ctx, events, "retry",
					fmt.Sprintf("%v failed (%v); retrying with a perturbed start seed", at.solver, err))
			} else {
				events = recordFallback(ctx, events, "solver",
					fmt.Sprintf("%v failed (%v); switching to %v", at.solver, err, next.solver))
			}
		} else {
			events = append(events, fmt.Sprintf("%v failed (%v)", at.solver, err))
		}
	}

	// Dense terminal step for this Laplacian kind, size permitting.
	if opt.DenseFallbackCap >= 0 && g.N() <= opt.DenseFallbackCap {
		events = recordFallback(ctx, events, "dense",
			"all iterative solvers failed; falling back to the dense solver")
		lambda, err := denseSpectrum(ctx, g, kind, h, sp)
		if err == nil {
			if ferr := linalg.CheckFinite("dense eigensolve output", lambda); ferr != nil {
				obs.IncCtx(ctx, "core.fallback.nonfinite")
				return nil, SolverDense, events, errors.Join(firstErr, ferr)
			}
			return lambda, SolverDense, events, nil
		}
		return nil, SolverDense, events, errors.Join(firstErr, err)
	}
	return nil, used, events, firstErr
}

// solveAttempt names one step of the iterative escalation chain.
type solveAttempt struct {
	solver  Solver
	perturb bool
}

// attemptSolve runs one iterative eigensolve with a freshly wrapped operator
// and, when the attempt is a retry, a perturbed deterministic start seed.
// It also returns how many leading values converged; Chebyshev pads the
// rest when its sweeps run out.
func attemptSolve(ctx context.Context, L *linalg.CSR, c float64, h int, at solveAttempt, opt Options, sp *obs.Span) ([]float64, int, error) {
	var op linalg.Operator = L
	if opt.WrapOperator != nil {
		op = opt.WrapOperator(op)
	}
	var cnt *linalg.CountingOperator
	if obs.Enabled() {
		cnt = &linalg.CountingOperator{A: op, Scope: obs.FromContext(ctx)}
		op = cnt
	}
	esp := sp.Child("eigensolve")
	esp.SetStr("solver", at.solver.String())
	var lambda []float64
	var converged int
	var err error
	switch at.solver {
	case SolverLanczos:
		lo := opt.Lanczos
		if at.perturb {
			lo = perturbLanczos(lo)
		}
		lambda, err = linalg.SmallestEigsPSDContext(ctx, op, c, h, lo)
		converged = len(lambda)
	default:
		co := opt.Chebyshev
		if at.perturb {
			co = perturbCheb(co)
		}
		lambda, converged, err = linalg.ChebFilteredSmallestPadded(ctx, op, c, h, co)
	}
	if cnt != nil {
		obs.AddCtx(ctx, "linalg.matvecs", cnt.Count())
	}
	esp.End()
	return lambda, converged, err
}

// denseSpectrum computes the h smallest eigenvalues with the dense solver.
func denseSpectrum(ctx context.Context, g *graph.Graph, kind laplacian.Kind, h int, sp *obs.Span) ([]float64, error) {
	lsp := sp.Child("laplacian")
	L := laplacian.BuildDense(g, kind)
	lsp.End()
	esp := sp.Child("eigensolve")
	esp.SetStr("solver", "dense")
	vals, err := linalg.SymEigValuesContext(ctx, L)
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("core: dense eigensolve: %w", err)
	}
	// The dense path applies no operator products; register the matvec
	// counter anyway so the metric exists for every solver choice.
	obs.AddCtx(ctx, "linalg.matvecs", 0)
	if len(vals) > h {
		vals = vals[:h]
	}
	return vals, nil
}

// recordFallback appends a degradation event and bumps its counters,
// attributed to ctx's telemetry scope.
func recordFallback(ctx context.Context, events []string, kindName, msg string) []string {
	obs.IncCtx(ctx, "core.fallback."+kindName)
	obs.IncCtx(ctx, "core.fallback.total")
	return append(events, msg)
}

// isInterrupt reports whether err stems from context cancellation or an
// expired deadline — failures the escalation chain must not mask.
func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// nextSeed advances a deterministic seed for a perturbed retry: an LCG step
// so the retry explores a genuinely different start vector while the whole
// escalation chain stays reproducible.
func nextSeed(s int64) int64 {
	if s == 0 {
		s = 1 // solvers treat 0 as "use the default"
	}
	s = s*6364136223846793005 + 1442695040888963407
	if s == 0 {
		s = 7
	}
	return s
}

func perturbLanczos(o *linalg.LanczosOptions) *linalg.LanczosOptions {
	var out linalg.LanczosOptions
	if o != nil {
		out = *o
	}
	out.Seed = nextSeed(out.Seed)
	return &out
}

func perturbCheb(o *linalg.ChebOptions) *linalg.ChebOptions {
	var out linalg.ChebOptions
	if o != nil {
		out = *o
	}
	out.Seed = nextSeed(out.Seed)
	return &out
}

// BoundFromEigenvalues evaluates the Theorem 4/5/6 bound directly from an
// ascending prefix lambda of a Laplacian spectrum, for a graph with n
// vertices, fast memory M, and p processors. divisor is 1 for the
// out-degree-normalized Laplacian (Theorem 4) and max_v d_out(v) for the
// original Laplacian (Theorem 5). It returns the clamped bound
// max(0, max_k ⌊n/(kp)⌋·Σ_{i≤k}λ_i/divisor − 2kM), the maximizing k (0 if
// the raw maximum is non-positive), and the per-k values.
//
// This entry point is what closed-form analyses use: feed it an analytic
// spectrum (e.g. the hypercube's or the butterfly's) instead of a computed
// one. It never panics and never returns non-finite values: NaN/Inf
// eigenvalues are treated as 0 (keeping the lower bound sound), a
// non-positive or non-finite divisor is treated as 1, and overflowing per-k
// values saturate at ±math.MaxFloat64.
func BoundFromEigenvalues(lambda []float64, n, M, p int, divisor float64) (bound float64, bestK int, perK []float64) {
	return boundFromEigenvalues(nil, lambda, n, M, p, divisor)
}

// BoundFromEigenvaluesContext is BoundFromEigenvalues with the per-k
// timing histogram attributed to ctx's telemetry scope.
func BoundFromEigenvaluesContext(ctx context.Context, lambda []float64, n, M, p int, divisor float64) (bound float64, bestK int, perK []float64) {
	return boundFromEigenvalues(obs.FromContext(ctx), lambda, n, M, p, divisor)
}

func boundFromEigenvalues(sc *obs.Scope, lambda []float64, n, M, p int, divisor float64) (bound float64, bestK int, perK []float64) {
	if p < 1 {
		p = 1
	}
	if divisor <= 0 || math.IsNaN(divisor) || math.IsInf(divisor, 0) {
		divisor = 1
	}
	perK = make([]float64, len(lambda))
	sum := 0.0
	// Per-k evaluation timings feed the "core.boundk_ns" histogram when the
	// observability layer is on; each evaluation is a handful of flops, so
	// the clock reads are gated rather than unconditional.
	timed := obs.Enabled()
	for i, l := range lambda {
		var t0 time.Time
		if timed {
			t0 = obs.Now()
		}
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			l = 0 // eigenvalues of a PSD Laplacian; drop round-off and corruption
		}
		sum += l
		if math.IsInf(sum, 1) {
			sum = math.MaxFloat64 // saturate rather than poison every later k
		}
		k := i + 1
		// ⌊n/(kp)⌋ via nested floor division: identical result for n ≥ 0,
		// and k*p cannot overflow.
		seg := (n / k) / p
		v := float64(seg)*sum/divisor - 2*float64(k)*float64(M)
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = math.MaxFloat64
		case math.IsInf(v, -1):
			v = -math.MaxFloat64
		}
		perK[i] = v
		if timed {
			sc.ObserveHistDuration("core.boundk_ns", obs.Since(t0))
		}
	}
	raw := rawMax(perK)
	bound = raw
	if bound < 0 {
		bound = 0
	}
	bestK = 0
	if raw > 0 {
		for i, v := range perK {
			//lint:ignore float-eq raw was copied out of perK above, so bit equality recovers the argmax exactly
			if v == raw {
				bestK = i + 1
				break
			}
		}
	}
	return bound, bestK, perK
}

func rawMax(perK []float64) float64 {
	if len(perK) == 0 {
		return 0
	}
	best := perK[0]
	for _, v := range perK[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
