package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
	"graphio/internal/pebble"
)

// core's defaults at the recorded commit: h = MaxK = 100, and SolverAuto
// takes the dense path at or below 1024 vertices. The traced run's layer
// decomposition mirrors them and fails when core's result shows it no
// longer takes that path.
const (
	coreMaxK        = 100
	coreDenseCutoff = 1024
)

// boundsWorkload defines the dense and iterative workloads: one caller in
// a closed loop calling core.SpectralBoundContext with default options,
// first on each fixed input, then on fresh seed-generated random layered
// DAGs until the measured phase ends. No (graph, M) pair repeats in a run,
// so no result cache can stand in for a solve.
type boundsWorkload struct {
	name  string
	fixed []fixedInput
	// rdag is the layers × width of RandomLayeredDAG(layers, width, 3, s).
	rdag [2]int
}

type fixedInput struct {
	name  string
	build func() *graph.Graph
}

// Every dense input has at most 1024 vertices, so SolverAuto takes the
// dense path (tred2 + tql2 do ~98% of the work) and Chebyshev never runs.
var denseWorkload = boundsWorkload{
	name: "dense",
	fixed: []fixedInput{
		{"fft-7", func() *graph.Graph { return gen.FFT(7) }},
		{"bhk-10", func() *graph.Graph { return gen.BellmanHeldKarp(10) }},
		{"matmul-8", func() *graph.Graph { return gen.NaiveMatMulNary(8) }},
	},
	rdag: [2]int{40, 25},
}

// Every iterative input has 2,048–5,120 vertices and takes the Chebyshev
// path: the filter's CSR MatVec and the block algebra do the work, and the
// dense solver only sees the small Rayleigh–Ritz matrices.
var iterativeWorkload = boundsWorkload{
	name: "iterative",
	fixed: []fixedInput{
		{"fft-8", func() *graph.Graph { return gen.FFT(8) }},
		{"fft-9", func() *graph.Graph { return gen.FFT(9) }},
		{"strassen-8", func() *graph.Graph { return gen.Strassen(8) }},
		{"matmul-12", func() *graph.Graph { return gen.NaiveMatMulNary(12) }},
		{"bhk-11", func() *graph.Graph { return gen.BellmanHeldKarp(11) }},
	},
	rdag: [2]int{48, 48},
}

func (w boundsWorkload) rdagName() string { return fmt.Sprintf("rdag-%dx%d", w.rdag[0], w.rdag[1]) }

// inputNames lists the metric suffixes of core.bound_s.<input>.
func (w boundsWorkload) inputNames() []string {
	var out []string
	for _, f := range w.fixed {
		out = append(out, f.name)
	}
	return append(out, w.rdagName())
}

// subSeed derives an independent generator seed from the workload seed,
// so every seed-driven choice in a run follows from --seed alone.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// boundInput is one (graph, M) the loop solves.
type boundInput struct {
	name string // metric suffix: the fixed input's name or the rdag shape
	key  string // graph identity, the reference key without the kind
	g    *graph.Graph
	m    int
	ref  *spectrum // nil: no recorded reference, invariant checks only
}

// rdagInput builds the run's i-th random DAG. M = 1 keeps its bound
// positive: these shapes certify nothing from M = 2 or 3 upwards.
func (w boundsWorkload) rdagInput(seed int64, i int, refs refSet) boundInput {
	s := subSeed(seed, w.rdagName(), i)
	key := fmt.Sprintf("%s@%d", w.rdagName(), s)
	g := gen.RandomLayeredDAG(w.rdag[0], w.rdag[1], 3, s)
	return boundInput{name: w.rdagName(), key: key, g: g, m: 1, ref: refs[specKey(key, laplacian.OutDegreeNormalized)]}
}

// setup is the timed set-up: graph generation and reference load. Each
// fixed input's M is drawn from the seed among those that keep the
// reference bound positive.
func (w boundsWorkload) setup(seed int64, tr *tracer) ([]boundInput, refSet, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "m", 0)))
	var ins []boundInput
	for _, f := range w.fixed {
		ref := refs[specKey(f.name, laplacian.OutDegreeNormalized)]
		if ref == nil {
			return nil, nil, fmt.Errorf("no reference spectrum for %s", f.name)
		}
		sp := tr.start("gen.build", f.name, nil)
		g := f.build()
		sp.end()
		m := 1 + rng.Intn(maxPositiveM(ref.Values, min(coreMaxK, ref.N), ref.N))
		ins = append(ins, boundInput{name: f.name, key: f.name, g: g, m: m, ref: ref})
	}
	sp := tr.start("gen.build", w.rdagName(), nil)
	ins = append(ins, w.rdagInput(seed, 0, refs))
	sp.end()
	return ins, refs, nil
}

func runBounds(ctx context.Context, w boundsWorkload, p params) (*run, error) {
	r := newRun()
	if p.trace {
		tr := newTracer()
		ins, _, err := w.setup(p.seed, tr)
		if err != nil {
			return nil, err
		}
		return w.traced(ctx, p, ins, tr, r)
	}
	var ins []boundInput
	var refs refSet
	setup, err := timeSetup(func() (err error) {
		ins, refs, err = w.setup(p.seed, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "s")

	var runs []solved
	start := obs.Now()
	for i := 0; i == 0 || obs.Since(start) < p.seconds; i++ {
		in := w.inputAt(p.seed, i, ins, refs)
		t0 := obs.Now()
		res, err := core.SpectralBoundContext(ctx, in.g, core.Options{M: in.m})
		runs = append(runs, solved{in, res, err, obs.Since(t0)})
	}
	wall := obs.Since(start)
	r = w.summarize(r, ins, runs, wall)
	runs = nil
	r.set("heap_retained_mb", retainedMB(), "MB")
	return r, nil
}

// solved is one bound of the measured loop.
type solved struct {
	in  boundInput
	res *core.Result
	err error
	lat time.Duration
}

// summarize checks every bound of the measured loop and sets the
// end-to-end metrics.
func (w boundsWorkload) summarize(r *run, ins []boundInput, runs []solved, wall time.Duration) *run {
	var lat []float64
	degraded := 0
	for _, s := range runs {
		r.op(checkResult(s.in, s.res, s.err)...)
		if s.err != nil {
			continue
		}
		lat = append(lat, s.lat.Seconds())
		if s.res.Degraded {
			degraded++
		}
	}
	completed := len(lat)
	r.set("ops_per_s", float64(completed)/wall.Seconds(), "1/s")
	r.set("op_p50_s", median(lat), "s")
	r.set("op_p90_s", quantile(lat, 0.9), "s")
	var fixed []string
	for _, in := range ins[:len(w.fixed)] {
		fixed = append(fixed, fmt.Sprintf("%s M=%d", in.name, in.m))
	}
	r.note("op = one core.SpectralBoundContext call; %d bounds in %.2f s (fixed: %v; then %d %s graphs at M=1)",
		completed, wall.Seconds(), fixed, len(runs)-len(w.fixed), w.rdagName())
	r.note("latency samples %d (p90 has %d beyond it); fail_ratio %d/%d; degraded_ratio %d/%d",
		len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat)))), r.failed, r.attempted, degraded, completed)
	r.note("setup_s is the median of %d set-ups (graph generation + reference load)", setupRepeats)
	return r
}

// inputAt is the i-th input of a run: the fixed inputs in order, then
// random DAG number i-len(fixed).
func (w boundsWorkload) inputAt(seed int64, i int, ins []boundInput, refs refSet) boundInput {
	if i < len(ins) {
		return ins[i]
	}
	return w.rdagInput(seed, i-len(w.fixed), refs)
}

// checkResult is the correctness gate for one bound. Inputs with a
// reference spectrum must reproduce its Theorem 4 bound; seed-generated
// graphs without one get invariant checks: finite, ≥ 0, consistent with
// the eigenvalues returned, and not above the I/O pebble.Simulate measures
// on g.TopoOrder().
func checkResult(in boundInput, res *core.Result, err error) []string {
	what := fmt.Sprintf("%s (%s, M=%d)", in.name, in.key, in.m)
	if err != nil {
		return []string{what + ": " + err.Error()}
	}
	if in.ref != nil {
		return nonEmpty(checkBound(what, res.Bound, in.ref, coreMaxK, in.m, false))
	}
	n := in.g.N()
	h := min(coreMaxK, n)
	if math.IsNaN(res.Bound) || math.IsInf(res.Bound, 0) || res.Bound < 0 {
		return []string{fmt.Sprintf("%s: bound %v is not finite and ≥ 0", what, res.Bound)}
	}
	if want := theoremBound(res.Eigenvalues, h, n, in.m, 1); !closeTo(res.Bound, want) {
		return []string{fmt.Sprintf("%s: bound %.10g disagrees with its own eigenvalues (%.10g)", what, res.Bound, want)}
	}
	// pebble.Simulate needs M at least the largest in-degree; below that
	// J* is unbounded, so the check runs at that M on the same spectrum.
	ms := max(in.m, in.g.MaxInDeg())
	sim, err := pebble.Simulate(in.g, in.g.TopoOrder(), ms, pebble.Belady)
	if err != nil {
		return []string{what + ": simulate: " + err.Error()}
	}
	if lb := theoremBound(res.Eigenvalues, h, n, ms, 1); lb > float64(sim.Total())*(1+1e-9) {
		return []string{fmt.Sprintf("%s: bound %.6g at M=%d exceeds the simulated I/O %d", what, lb, ms, sim.Total())}
	}
	return nil
}

// inputTrace is what the traced run measures for one input.
type inputTrace struct {
	in        boundInput
	untraced  time.Duration // the same call with no probe and no span
	bound     *span         // core.bound around core.SpectralBoundContext
	res       *core.Result
	err       error
	decompose decomposition
}

// decomposition re-runs one input through the layers' public calls in the
// order core uses them.
type decomposition struct {
	bound    float64
	dense    bool
	n        int
	solve    *span // linalg.dense or linalg.cheb
	matvecs  int64
	busy     time.Duration // MatVec time summed over goroutines
	inFlight time.Duration // union of MatVec intervals
	csrBytes float64       // computed bytes one CSR MatVec streams
}

// traceInput measures one input the traced way: a core.bound span around
// core.SpectralBoundContext with an operator probe, then the layer
// decomposition. slow, when non-nil, wraps the operator beneath both
// probes (the attribution self-test slows each MatVec with it).
func traceInput(ctx context.Context, tr *tracer, in boundInput, slow func(linalg.Operator) linalg.Operator) inputTrace {
	t := inputTrace{in: in}
	ps := &probeSet{epoch: tr.epoch, slow: slow}
	t.bound = tr.start("core.bound", in.name, nil)
	t.res, t.err = core.SpectralBoundContext(ctx, in.g, core.Options{M: in.m, WrapOperator: ps.wrap})
	t.bound.end()
	calls, busy, inFlight := ps.totals()
	t.bound.count("matvecs", float64(calls))
	t.bound.count("matvec_busy_ns", float64(busy))
	t.bound.count("matvec_inflight_ns", float64(inFlight))
	if t.err == nil {
		t.decompose, t.err = decompose(ctx, tr, in, slow)
	}
	return t
}

func decompose(ctx context.Context, tr *tracer, in boundInput, slow func(linalg.Operator) linalg.Operator) (decomposition, error) {
	n := in.g.N()
	h := min(coreMaxK, n)
	d := decomposition{n: n, dense: n <= coreDenseCutoff}
	root := tr.start("decomposition", in.name, nil)
	defer root.end()
	var vals []float64
	var err error
	if d.dense {
		sp := tr.start("laplacian.build", in.name, root)
		L := laplacian.BuildDense(in.g, laplacian.OutDegreeNormalized)
		sp.end()
		d.solve = tr.start("linalg.dense", in.name, root)
		vals, err = linalg.SymEigValuesContext(ctx, L)
		d.solve.end()
		if err != nil {
			return d, err
		}
		vals = vals[:h]
	} else {
		sp := tr.start("laplacian.build", in.name, root)
		L, err := laplacian.BuildCSR(in.g, laplacian.OutDegreeNormalized)
		sp.end()
		if err != nil {
			return d, err
		}
		d.csrBytes = float64(4*len(L.RowPtr) + 12*len(L.Col) + 16*L.N)
		ps := &probeSet{epoch: tr.epoch, slow: slow}
		d.solve = tr.start("linalg.cheb", in.name, root)
		vals, err = linalg.ChebFilteredSmallestContext(ctx, ps.wrap(L), L.GershgorinUpper(), h, nil)
		d.solve.end()
		if err != nil {
			return d, err
		}
		d.matvecs, d.busy, d.inFlight = ps.totals()
		d.solve.count("matvecs", float64(d.matvecs))
		d.solve.count("matvec_busy_ns", float64(d.busy))
		d.solve.count("matvec_inflight_ns", float64(d.inFlight))
	}
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0 // as core does: a PSD spectrum's round-off
		}
	}
	sp := tr.start("core.ksweep", in.name, root)
	d.bound, _, _ = core.BoundFromEigenvaluesContext(ctx, vals, n, in.m, 1, 1)
	sp.end()
	return d, nil
}

// pathMiss reports where the decomposition stops describing what core
// did: a different bound, or a different solver path (MatVecs on one side
// only).
func (t inputTrace) pathMiss() string {
	coreMV := t.bound.Counts["matvecs"]
	switch {
	case math.Abs(t.decompose.bound-t.res.Bound) > 1e-9*math.Max(math.Abs(t.res.Bound), 1):
		return fmt.Sprintf("%s: layer decomposition gives bound %.12g, core gives %.12g", t.in.name, t.decompose.bound, t.res.Bound)
	case (coreMV > 0) != (t.decompose.matvecs > 0):
		return fmt.Sprintf("%s: core ran %v MatVecs, the decomposition %d: core no longer takes the path the decomposition times", t.in.name, coreMV, t.decompose.matvecs)
	}
	return ""
}

// traced is the --trace 1 run of a bounds workload: every input once (the
// fixed inputs and the run's first random DAG), untraced for the overhead
// ratio, then traced with the layer decomposition.
func (w boundsWorkload) traced(ctx context.Context, p params, ins []boundInput, tr *tracer, r *run) (*run, error) {
	var traces []inputTrace
	for _, in := range ins {
		t0 := obs.Now()
		_, err := core.SpectralBoundContext(ctx, in.g, core.Options{M: in.m})
		untraced := obs.Since(t0)
		if err != nil {
			r.op(in.name + ": " + err.Error())
			continue
		}
		t := traceInput(ctx, tr, in, nil)
		t.untraced = untraced
		misses := checkResult(in, t.res, t.err)
		if t.err == nil {
			misses = append(misses, nonEmpty(t.pathMiss())...)
		}
		r.op(misses...)
		traces = append(traces, t)
	}
	r.setAll(boundLayerMetrics(tr, traces))
	path, err := tr.writeFile(filepath.Join(p.work, "trace"), w.name, p.seed)
	if err != nil {
		return nil, err
	}
	r.note("traced %d inputs once each; spans in %s", len(traces), path)
	return r, nil
}

// boundLayerMetrics turns a bounds workload's traces into per-layer
// metrics.
func boundLayerMetrics(tr *tracer, traces []inputTrace) map[string]metric {
	m := map[string]metric{}
	var denseFlop, csrBytes, untraced, traced, degraded, fallbacks float64
	var chebSelf, busy time.Duration
	var matvecs int64
	for _, t := range traces {
		m["core.bound_s."+t.in.name] = metric{t.bound.dur().Seconds(), "s"}
		untraced += t.untraced.Seconds()
		traced += t.bound.dur().Seconds()
		if t.err != nil {
			continue
		}
		if t.res.Degraded {
			degraded++
		}
		fallbacks += float64(len(t.res.Fallbacks))
		d := t.decompose
		if d.dense {
			denseFlop += 4.0 / 3 * math.Pow(float64(d.n), 3)
			continue
		}
		chebSelf += d.solve.dur() - d.inFlight
		busy += d.busy
		matvecs += d.matvecs
		csrBytes += d.csrBytes * float64(d.matvecs)
	}
	denseS := tr.total("linalg.dense").Seconds()
	m["gen.build_s"] = metric{tr.total("gen.build").Seconds(), "s"}
	m["laplacian.build_s"] = metric{tr.total("laplacian.build").Seconds(), "s"}
	m["linalg.dense_s"] = metric{denseS, "s"}
	m["linalg.dense_gflops"] = metric{ratio(denseFlop/1e9, denseS), "GFLOP/s"}
	m["linalg.cheb_s"] = metric{tr.total("linalg.cheb").Seconds(), "s"}
	m["linalg.cheb_self_s"] = metric{chebSelf.Seconds(), "s"}
	m["linalg.matvecs"] = metric{float64(matvecs), "count"}
	m["linalg.matvec_busy_s"] = metric{busy.Seconds(), "s"}
	m["linalg.matvec_gbps"] = metric{ratio(csrBytes/1e9, busy.Seconds()), "GB/s"}
	m["core.ksweep_s"] = metric{tr.total("core.ksweep").Seconds(), "s"}
	m["core.fallbacks"] = metric{fallbacks, "count"}
	m["core.degraded_ratio"] = metric{ratio(degraded, float64(len(traces))), "ratio"}
	m["trace.overhead_ratio"] = metric{ratio(traced, untraced), "ratio"}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
