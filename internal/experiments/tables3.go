package experiments

import (
	"context"
	"fmt"

	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/expansion"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/hongkung"
	"graphio/internal/laplacian"
	"graphio/internal/mincut"
	"graphio/internal/pebble"
	"graphio/internal/redblue"
)

// TableExpansion relates the spectral bound to its edge-expansion
// ancestry (§2, §4.1): Cheeger's inequality confines h(G) to
// [λ2/2, sqrt(2·dmax·λ2)], a Fiedler sweep cut realizes a concrete cut
// inside that interval, and the k-sweep spectral bound dominates what λ2
// alone (k = 2, the expansion-style argument) certifies.
func TableExpansion(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:  "expansion",
		Title: "Edge expansion vs spectral: Cheeger interval, sweep cut, and k=2 vs full k-sweep bounds (M=4)",
		Columns: []string{"graph", "n", "lambda2", "cheeger_lo", "exact_h", "sweep_cut",
			"bound_k2", "bound_sweep"},
	}
	graphs := []*graph.Graph{
		gen.Chain(16),
		gen.Grid2D(4, 4),
		gen.ErdosRenyiDAG(18, 0.3, cfg.Seed),
		gen.FFT(5),
		gen.BellmanHeldKarp(7),
	}
	M := 4
	for _, g := range graphs {
		l2, err := expansion.Lambda2(g)
		if err != nil {
			return nil, err
		}
		lo, _ := expansion.CheegerInterval(l2, g.MaxDeg())
		exactCell := "-"
		if g.N() <= 22 {
			h, err := expansion.Exact(g)
			if err != nil {
				return nil, err
			}
			if h < lo-1e-8 {
				return nil, fmt.Errorf("expansion table: exact h below Cheeger lower on %s", g.Name())
			}
			exactCell = fnum(h)
		}
		sweep, err := expansion.SweepCut(g)
		if err != nil {
			return nil, err
		}
		res, err := core.SpectralBoundContext(ctx, g, core.Options{
			M: M, MaxK: cfg.MaxK, Laplacian: laplacian.Original, Solver: cfg.Solver,
		})
		if err != nil {
			return nil, err
		}
		k2 := 0.0
		if len(res.PerK) >= 2 && res.PerK[1] > 0 {
			k2 = res.PerK[1]
		}
		if k2 > res.Bound+1e-9 {
			return nil, fmt.Errorf("expansion table: k=2 bound above the sweep maximum on %s", g.Name())
		}
		t.AddRow(g.Name(), inum(g.N()), fnum(l2), fnum(lo), exactCell, fnum(sweep),
			fnum(k2), fnum(res.Bound))
	}
	return t, nil
}

// TableHongKung compares, at toy scale, every automated lower-bound method
// against exact ground truth: the spectral bound and convex min-cut
// against the exact *non-trivial* optimum, and the exactly computed
// Hong-Kung 2S-partition bound against the exact *total* optimum. This is
// the comparison the paper's §2/§6.3 leaves open ("the ILP based method is
// intractable") — tractable here because the graphs are tiny.
func TableHongKung(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:  "hongkung",
		Title: "Toy-scale method comparison vs exact optima (HK bounds total I/O; spectral/min-cut bound non-trivial I/O)",
		Columns: []string{"graph", "n", "M", "spectral_T4", "mincut", "exactJ*_nontrivial",
			"hong_kung", "exactJ*_total"},
	}
	graphs := []*graph.Graph{
		gen.InnerProduct(2),
		gen.InnerProduct(3),
		gen.FFT(1),
		gen.FFT(2),
		gen.Grid2D(3, 4),
		gen.BinaryTreeReduce(3),
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
			spec := s4.At(ctx, M, 1)
			mc, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: M})
			if err != nil {
				return nil, err
			}
			exactNT, err := redblue.OptimalContext(ctx, g, M, redblue.Options{})
			if err != nil {
				return nil, err
			}
			hk, err := hongkung.Bound(g, M, hongkung.Options{})
			if err != nil {
				return nil, err
			}
			exactT, err := redblue.OptimalContext(ctx, g, M, redblue.Options{CountTrivial: true})
			if err != nil {
				return nil, err
			}
			if spec.Bound > float64(exactNT.IO)+1e-6 || mc.Bound > float64(exactNT.IO)+1e-6 {
				return nil, fmt.Errorf("hongkung table: non-trivial bound above J* on %s M=%d", g.Name(), M)
			}
			if hk > float64(exactT.IO)+1e-6 {
				return nil, fmt.Errorf("hongkung table: HK bound above total J* on %s M=%d", g.Name(), M)
			}
			t.AddRow(g.Name(), inum(g.N()), inum(M), fnum(spec.Bound), fnum(mc.Bound),
				inum(exactNT.IO), fnum(hk), inum(exactT.IO))
		}
	}
	return t, nil
}

// TableGrid applies the spectral method to a workload outside the paper's
// evaluation: the 2-D stencil DAG, whose closed-form spectrum (Cartesian
// product of paths, analytic.GridSpectrum) makes the Theorem 5 bound
// analytic. Stencils have small spectral gaps, so the certified floor is
// far below the simulated schedules — an honest negative result that marks
// the method's boundary.
func TableGrid(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:    "grid",
		Title:   "2-D stencil (extension): closed-form Theorem 5 bound vs computed vs simulated schedules",
		Columns: []string{"side", "n", "M", "closed_T5", "computed_T4", "sim_frontier", "sim_kahn"},
	}
	for _, side := range []int{8, 16, 24} {
		g := gen.Grid2D(side, side)
		s4, err := core.SolveSpectrum(ctx, g, core.Options{MaxK: cfg.MaxK, Solver: cfg.Solver})
		if err != nil {
			return nil, err
		}
		for _, M := range []int{4, 8} {
			closed, _ := analytic.GridBound(side, side, M, cfg.MaxK)
			res := s4.At(ctx, M, 1)
			fr, err := pebble.SimulateContext(ctx, g, pebble.FrontierOrder(g), M, pebble.Belady)
			if err != nil {
				return nil, err
			}
			kahn, err := pebble.SimulateContext(ctx, g, g.TopoOrder(), M, pebble.Belady)
			if err != nil {
				return nil, err
			}
			if closed > float64(fr.Total())+1e-6 || res.Bound > float64(fr.Total())+1e-6 {
				return nil, fmt.Errorf("grid table: lower bound above simulated schedule at side=%d M=%d", side, M)
			}
			t.AddRow(inum(side), inum(g.N()), inum(M), fnum(closed), fnum(res.Bound),
				inum(fr.Total()), inum(kahn.Total()))
		}
	}
	return t, nil
}
