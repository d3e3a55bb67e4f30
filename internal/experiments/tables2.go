package experiments

import (
	"context"
	"fmt"
	"math"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/mincut"
	"graphio/internal/partition"
	"graphio/internal/pebble"
	"graphio/internal/redblue"
)

// TableParallel sweeps the Theorem 6 parallel bound over processor counts:
// the per-processor certificate decays with p but stays nontrivial while
// ⌊n/(kp)⌋ is large (§4.4).
func TableParallel(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "parallel",
		Title:   "Parallel spectral bound (Theorem 6): busiest-processor I/O vs processor count",
		Columns: []string{"graph", "n", "M", "p1", "p2", "p4", "p8", "p16"},
	}
	graphs := []*graph.Graph{
		gen.FFT(7),
		gen.FFT(9),
		gen.BellmanHeldKarp(9),
		gen.BellmanHeldKarp(11),
	}
	for _, g := range graphs {
		M := 4
		if g.MaxInDeg() > M {
			M = g.MaxInDeg()
		}
		row := []string{g.Name(), inum(g.N()), inum(M)}
		// One eigensolve serves every p.
		s, err := core.SolveSpectrum(ctx, g, core.Options{MaxK: cfg.MaxK, Solver: cfg.Solver})
		if err != nil {
			return nil, err
		}
		prev := math.Inf(1)
		for _, p := range []int{1, 2, 4, 8, 16} {
			bound := s.At(ctx, M, p).Bound
			if bound > prev+1e-9 {
				return nil, fmt.Errorf("parallel bound increased with p on %s", g.Name())
			}
			prev = bound
			row = append(row, fnum(bound))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// TablePartitionedMinCut reproduces the §6.3 observation that the
// baseline's suggested partitioned variant (2M-vertex parts) collapses to
// trivial bounds on complex computation graphs, which is why the paper —
// and Figures 7-10 here — plot the whole-graph variant.
func TablePartitionedMinCut(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "mincut-partitioned",
		Title:   "Ablation (§6.3): whole-graph vs partitioned convex min-cut (parts ≤ 2M vertices)",
		Columns: []string{"graph", "n", "M", "whole_graph", "partitioned", "parts"},
	}
	graphs := []*graph.Graph{
		gen.FFT(5),
		gen.NaiveMatMulNary(4),
		gen.BellmanHeldKarp(6),
		gen.Grid2D(8, 8),
	}
	for _, g := range graphs {
		M := 4
		if g.MaxInDeg() > M {
			M = g.MaxInDeg()
		}
		whole, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: M, Timeout: cfg.MinCutTimeout})
		if err != nil {
			return nil, err
		}
		parts, err := partition.RecursiveBisection(g, 2*M)
		if err != nil {
			return nil, err
		}
		parted, err := mincut.PartitionedBound(ctx, g, parts, M)
		if err != nil {
			return nil, err
		}
		t.AddRow(g.Name(), inum(g.N()), inum(M),
			fnum(whole.Bound), fnum(parted.Bound), inum(len(parts)))
	}
	return t, nil
}

// TableScheduler quantifies how much the evaluation order matters in the
// simulator: Kahn vs DFS vs the greedy frontier scheduler vs the best of a
// random sample, all against the spectral lower bound. The gap between the
// best schedule and the bound brackets J*.
func TableScheduler(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:  "scheduler",
		Title: "Schedule sensitivity: simulated I/O by order heuristic vs spectral lower bound (Belady eviction)",
		Columns: []string{"graph", "n", "M", "lower_bound", "kahn", "dfs", "frontier",
			"affinity", "best_random", "best"},
	}
	graphs := []*graph.Graph{
		gen.FFT(6),
		gen.FFT(8),
		gen.NaiveMatMulNary(6),
		gen.BellmanHeldKarp(8),
		gen.Grid2D(16, 16),
	}
	for _, g := range graphs {
		M := 8
		if g.MaxInDeg() > M {
			M = g.MaxInDeg()
		}
		lower, err := core.SpectralBoundContext(ctx, g, core.Options{M: M, MaxK: cfg.MaxK, Solver: cfg.Solver})
		if err != nil {
			return nil, err
		}
		sim := func(order []int) (string, int, error) {
			res, err := pebble.SimulateContext(ctx, g, order, M, pebble.Belady)
			if err != nil {
				return "", 0, err
			}
			return inum(res.Total()), res.Total(), nil
		}
		kahnS, kahnV, err := sim(g.TopoOrder())
		if err != nil {
			return nil, err
		}
		dfsS, dfsV, err := sim(g.DFSTopoOrder())
		if err != nil {
			return nil, err
		}
		frS, frV, err := sim(pebble.FrontierOrder(g))
		if err != nil {
			return nil, err
		}
		affOrder, err := pebble.AffinityOrder(g, 4*M)
		if err != nil {
			return nil, err
		}
		affS, affV, err := sim(affOrder)
		if err != nil {
			return nil, err
		}
		rnd, _, _, err := pebble.BestOrderContext(ctx, g, M, pebble.Belady, cfg.SandwichSamples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		best := minInt(kahnV, minInt(dfsV, minInt(frV, minInt(affV, rnd.Total()))))
		if lower.Bound > float64(best)+1e-6 {
			return nil, fmt.Errorf("scheduler table: lower bound %.2f above best schedule %d on %s",
				lower.Bound, best, g.Name())
		}
		t.AddRow(g.Name(), inum(g.N()), inum(M), fnum(lower.Bound),
			kahnS, dfsS, frS, affS, inum(rnd.Total()), inum(best))
	}
	return t, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TableExact pins the true J* with the exact red-blue solver on tiny
// graphs and reports how tight each lower bound and the best simulated
// schedule are against it. This is ground truth the paper could not
// include (it calls exact approaches intractable — true at scale; at a
// dozen vertices the state space is searchable).
func TableExact(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "exact",
		Title:   "Ground truth on tiny graphs: exact J* vs lower bounds vs best simulated schedule",
		Columns: []string{"graph", "n", "M", "spectral_T4", "mincut", "exact_J*", "best_simulated"},
	}
	graphs := []*graph.Graph{
		gen.InnerProduct(2),
		gen.InnerProduct(4),
		gen.FFT(2),
		gen.Grid2D(4, 4),
		gen.BinaryTreeReduce(3),
		gen.ErdosRenyiDAG(14, 0.3, cfg.Seed),
	}
	for _, g := range graphs {
		Ms := feasible(g, []int{2, 3})
		if len(Ms) == 0 {
			continue
		}
		s4, err := core.SolveSpectrum(ctx, g, core.Options{MaxK: cfg.MaxK, Solver: core.SolverDense})
		if err != nil {
			return nil, err
		}
		for _, M := range Ms {
			exact, err := redblue.OptimalContext(ctx, g, M, redblue.Options{})
			if err != nil {
				return nil, err
			}
			t4 := s4.At(ctx, M, 1)
			mc, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: M})
			if err != nil {
				return nil, err
			}
			sim, _, _, err := pebble.BestOrderContext(ctx, g, M, pebble.Belady, cfg.SandwichSamples, cfg.Seed)
			if err != nil {
				return nil, err
			}
			if t4.Bound > float64(exact.IO)+1e-6 || mc.Bound > float64(exact.IO)+1e-6 {
				return nil, fmt.Errorf("exact table: a lower bound exceeds J* on %s M=%d", g.Name(), M)
			}
			if exact.IO > sim.Total() {
				return nil, fmt.Errorf("exact table: J* above a simulated schedule on %s M=%d", g.Name(), M)
			}
			t.AddRow(g.Name(), inum(g.N()), inum(M), fnum(t4.Bound), fnum(mc.Bound),
				inum(exact.IO), inum(sim.Total()))
		}
	}
	return t, nil
}

// TableLambda2 checks the §5.3 ingredient directly: the algebraic
// connectivity λ2 of sampled Erdős–Rényi graphs against the
// Kolokolnikov et al. prediction p0·log n·(1 − sqrt(2/p0)) used inside the
// sparse-regime bound.
func TableLambda2(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "lambda2",
		Title:   "Erdős-Rényi algebraic connectivity: sampled λ2 vs §5.3 prediction",
		Columns: []string{"n", "p", "sampled_lambda2", "predicted", "ratio"},
	}
	for _, n := range cfg.ERSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := cfg.ERP0 * math.Log(float64(n)) / float64(n-1)
		g := gen.ErdosRenyiDAG(n, p, cfg.Seed)
		L, err := laplacian.BuildCSR(g, laplacian.Original)
		if err != nil {
			return nil, err
		}
		eigs, err := linalg.SmallestEigsPSDContext(ctx, L, L.GershgorinUpper(), 2, nil)
		if err != nil {
			return nil, err
		}
		lambda2 := eigs[1]
		pred := cfg.ERP0 * math.Log(float64(n)) * (1 - math.Sqrt(2/cfg.ERP0))
		ratio := lambda2 / pred
		t.AddRow(inum(n), fmt.Sprintf("%.4f", p), fnum(lambda2), fnum(pred),
			fmt.Sprintf("%.3f", ratio))
	}
	return t, nil
}
