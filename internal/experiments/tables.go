package experiments

import (
	"context"
	"fmt"
	"math"

	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/mincut"
	"graphio/internal/pebble"
)

// feasible returns the memory sizes in Ms at which g can be evaluated at
// all: max in-degree ≤ M (the paper drops the other points, §6.4).
func feasible(g *graph.Graph, Ms []int) []int {
	var out []int
	for _, M := range Ms {
		if g.MaxInDeg() <= M {
			out = append(out, M)
		}
	}
	return out
}

// bothSpectra solves g's Theorem 4 (normalized) and Theorem 5 (original)
// Laplacian spectra once each; At evaluates either at any M.
func bothSpectra(ctx context.Context, cfg Config, g *graph.Graph) (s4, s5 *core.Spectrum, err error) {
	s4, err = core.SolveSpectrum(ctx, g, core.Options{MaxK: cfg.MaxK, Solver: cfg.Solver})
	if err != nil {
		return nil, nil, err
	}
	s5, err = core.SolveSpectrum(ctx, g, core.Options{MaxK: cfg.MaxK, Laplacian: laplacian.Original, Solver: cfg.Solver})
	if err != nil {
		return nil, nil, err
	}
	return s4, s5, nil
}

// TableHypercube reproduces the §5.1 closed-form analysis: the simple
// α = 1 bound, the α-optimized closed form evaluated from the exact
// hypercube spectrum, and the solver-computed Theorem 5 bound, which must
// agree with the closed form (same spectrum, same sweep).
func TableHypercube(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "hypercube",
		Title:   "Bellman-Held-Karp closed forms (§5.1) vs computed bound (Theorem 5)",
		Columns: []string{"l", "M", "simple_alpha1", "closed_optimal", "best_k", "computed_T5", "computed_T4"},
	}
	for _, l := range cfg.BHKCities {
		g := gen.BellmanHeldKarp(l)
		Ms := feasible(g, cfg.BHKMemories)
		if len(Ms) == 0 {
			continue
		}
		s4, s5, err := bothSpectra(ctx, cfg, g)
		if err != nil {
			return nil, err
		}
		for _, M := range Ms {
			simple := analytic.HypercubeBoundSimple(l, M)
			opt, bestK := analytic.HypercubeBoundOptimalK(l, M, cfg.MaxK)
			t.AddRow(inum(l), inum(M), fnum(simple), fnum(opt), inum(bestK),
				fnum(s5.At(ctx, M, 1).Bound), fnum(s4.At(ctx, M, 1).Bound))
		}
	}
	return t, nil
}

// TableFFT reproduces the §5.2 analysis: the closed form from the
// Theorem 7 butterfly spectrum, the computed bound, the published
// asymptotically tight Hong–Kung bound, and the ratio between closed form
// and Hong–Kung, which the paper shows is only a 1/log M factor.
func TableFFT(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:  "fft",
		Title: "FFT closed form (§5.2, Theorem 7 spectrum) vs computed bound vs Hong-Kung Ω(l·2^l/log M)",
		Columns: []string{"l", "M", "closed_form", "alpha", "closed_paper_alpha",
			"computed_T5_fullspec", "hong_kung", "closed/hk"},
	}
	for _, l := range cfg.FFTLevels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := gen.FFT(l)
		for _, M := range cfg.FFTMemories {
			if g.MaxInDeg() > M {
				continue
			}
			cf, alpha := analytic.FFTClosedForm(l, M)
			cfPaper := analytic.FFTClosedFormPaperAlpha(l, M)
			// Theorem 5 evaluated from the exact analytic spectrum over
			// the full k sweep (cheap: the spectrum is closed form).
			spec := analytic.ButterflySpectrum(l)
			computed, _, _ := core.BoundFromEigenvaluesContext(ctx, spec, g.N(), M, 1, 2)
			hk := analytic.HongKungFFT(l, M)
			ratio := 0.0
			if hk > 0 {
				ratio = cf / hk
			}
			t.AddRow(inum(l), inum(M), fnum(cf), inum(alpha), fnum(cfPaper),
				fnum(computed), fnum(hk), fmt.Sprintf("%.4f", ratio))
		}
	}
	return t, nil
}

// TableER reproduces the §5.3 probabilistic analysis: sampled Erdős–Rényi
// DAGs in the sparse regime p = p0·log n/(n−1) against the closed-form
// prediction, and in the dense regime p = 1/2 against n/2 − 4M.
func TableER(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "er",
		Title:   "Erdős-Rényi bounds (§5.3): sampled spectral bound vs probabilistic closed form",
		Columns: []string{"regime", "n", "p", "M", "computed_T5", "predicted"},
	}
	M := 4
	for _, n := range cfg.ERSizes {
		p := cfg.ERP0 * math.Log(float64(n)) / float64(n-1)
		g := gen.ErdosRenyiDAG(n, p, cfg.Seed)
		res, err := core.SpectralBoundContext(ctx, g, core.Options{
			M: M, MaxK: cfg.MaxK, Laplacian: laplacian.Original, Solver: cfg.Solver,
		})
		if err != nil {
			return nil, err
		}
		pred := analytic.ErdosRenyiSparseBound(n, cfg.ERP0, M)
		t.AddRow("sparse", inum(n), fmt.Sprintf("%.4f", p), inum(M), fnum(res.Bound), fnum(pred))
	}
	for _, n := range cfg.ERSizes {
		g := gen.ErdosRenyiDAG(n, 0.5, cfg.Seed)
		res, err := core.SpectralBoundContext(ctx, g, core.Options{
			M: M, MaxK: cfg.MaxK, Laplacian: laplacian.Original, Solver: cfg.Solver,
		})
		if err != nil {
			return nil, err
		}
		pred := analytic.ErdosRenyiDenseBound(n, M)
		t.AddRow("dense", inum(n), "0.5", inum(M), fnum(res.Bound), fnum(pred))
	}
	return t, nil
}

// TableSandwich is the validation table V1: for a spread of graphs, every
// lower bound must sit below the best simulated schedule's I/O.
func TableSandwich(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "sandwich",
		Title:   "Validation: lower bounds vs best simulated schedule (upper bound)",
		Columns: []string{"graph", "n", "M", "spectral_T4", "spectral_T5", "mincut", "simulated_UB", "order"},
	}
	graphs := []*graph.Graph{
		gen.InnerProduct(4),
		gen.FFT(3),
		gen.FFT(4),
		gen.FFT(5),
		gen.NaiveMatMulNary(3),
		gen.Strassen(2),
		gen.BellmanHeldKarp(4),
		gen.BellmanHeldKarp(5),
		gen.Grid2D(5, 5),
	}
	for _, g := range graphs {
		Ms := feasible(g, []int{4, 8})
		if len(Ms) == 0 {
			continue
		}
		s4, s5, err := bothSpectra(ctx, cfg, g)
		if err != nil {
			return nil, err
		}
		for _, M := range Ms {
			t4, t5 := s4.At(ctx, M, 1), s5.At(ctx, M, 1)
			mc, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: M, Timeout: cfg.MinCutTimeout})
			if err != nil {
				return nil, err
			}
			ub, _, name, err := pebble.BestOrderContext(ctx, g, M, pebble.Belady, cfg.SandwichSamples, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if worst := math.Max(t4.Bound, math.Max(t5.Bound, mc.Bound)); worst > float64(ub.Total())+1e-6 {
				return nil, fmt.Errorf("sandwich violated on %s M=%d: lower %.2f > upper %d",
					g.Name(), M, worst, ub.Total())
			}
			t.AddRow(g.Name(), inum(g.N()), inum(M), fnum(t4.Bound), fnum(t5.Bound),
				fnum(mc.Bound), inum(ub.Total()), name)
		}
	}
	return t, nil
}

// TableBestK is the §6.5 ablation: the k maximizing the bound stays far
// below the h = 100 cap across families and memory sizes, which is why
// computing 100 eigenvalues loses nothing.
func TableBestK(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "bestk",
		Title:   "Ablation (§6.5): maximizing k per graph and memory size (h cap = MaxK)",
		Columns: []string{"graph", "n", "M", "best_k", "h", "bound"},
	}
	type entry struct {
		g  *graph.Graph
		Ms []int
	}
	var entries []entry
	for _, l := range cfg.FFTLevels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entries = append(entries, entry{gen.FFT(l), cfg.FFTMemories})
	}
	for _, l := range cfg.BHKCities {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entries = append(entries, entry{gen.BellmanHeldKarp(l), cfg.BHKMemories})
	}
	for _, e := range entries {
		Ms := feasible(e.g, e.Ms)
		if len(Ms) == 0 {
			continue
		}
		s, err := core.SolveSpectrum(ctx, e.g, core.Options{MaxK: cfg.MaxK, Solver: cfg.Solver})
		if err != nil {
			return nil, err
		}
		for _, M := range Ms {
			res := s.At(ctx, M, 1)
			t.AddRow(e.g.Name(), inum(e.g.N()), inum(M), inum(res.BestK),
				inum(len(s.Eigenvalues)), fnum(res.Bound))
		}
	}
	return t, nil
}

// TableThm4vs5 is the §4.3 ablation: how much tightness the out-degree-
// normalized Laplacian (Theorem 4) buys over the original Laplacian with
// the max-out-degree division (Theorem 5).
func TableThm4vs5(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "thm4vs5",
		Title:   "Ablation (§4.3): Theorem 4 (normalized L̃) vs Theorem 5 (L / max out-degree)",
		Columns: []string{"graph", "n", "M", "T4_bound", "T5_bound", "T4/T5"},
	}
	graphs := []*graph.Graph{
		gen.FFT(6),
		gen.NaiveMatMulNary(8),
		gen.Strassen(4),
		gen.BellmanHeldKarp(8),
	}
	for _, g := range graphs {
		Ms := feasible(g, []int{8, 16})
		if len(Ms) == 0 {
			continue
		}
		s4, s5, err := bothSpectra(ctx, cfg, g)
		if err != nil {
			return nil, err
		}
		for _, M := range Ms {
			t4, t5 := s4.At(ctx, M, 1), s5.At(ctx, M, 1)
			ratio := "inf"
			if t5.Bound > 0 {
				ratio = fmt.Sprintf("%.3f", t4.Bound/t5.Bound)
			} else if linalg.EqZero(t4.Bound) {
				ratio = "-"
			}
			t.AddRow(g.Name(), inum(g.N()), inum(M), fnum(t4.Bound), fnum(t5.Bound), ratio)
		}
	}
	return t, nil
}
