package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"graphio/internal/core"
	"graphio/internal/graph"
	"graphio/internal/mincut"
	"graphio/internal/obs"
)

// graphBounds carries everything the figure tables need for one graph:
// the Theorem 4 spectrum (M-independent), the baseline's best cut (also
// M-independent — the per-M bound is 2·(cut − M)), and timings.
type graphBounds struct {
	g            *graph.Graph
	spec         *core.Spectrum
	spectralTime time.Duration
	cut          int64
	cutTime      time.Duration
	cutTimedOut  bool
	cutSkipped   bool
}

// computeBounds runs the spectral eigensolve and (optionally) the min-cut
// sweep once per graph.
func computeBounds(ctx context.Context, cfg Config, g *graph.Graph, wantMinCut bool) (*graphBounds, error) {
	gb := &graphBounds{g: g}
	start := obs.Now()
	spec, err := core.SolveSpectrum(ctx, g, core.Options{MaxK: cfg.MaxK, Solver: cfg.Solver})
	if err != nil {
		return nil, fmt.Errorf("spectral bound for %s: %w", g.Name(), err)
	}
	gb.spec = spec
	gb.spectralTime = obs.Since(start)

	if wantMinCut {
		if cfg.MinCutMaxN > 0 && g.N() > cfg.MinCutMaxN {
			gb.cutSkipped = true
		} else {
			mc, err := mincut.ConvexMinCutBoundContext(ctx, g, mincut.Options{M: 1, Timeout: cfg.MinCutTimeout})
			if err != nil {
				return nil, fmt.Errorf("min-cut bound for %s: %w", g.Name(), err)
			}
			gb.cut = mc.BestCut
			gb.cutTime = mc.Elapsed
			gb.cutTimedOut = mc.TimedOut
		}
	}
	return gb, nil
}

// spectralAt evaluates the spectral bound at memory size M on the cached
// spectrum.
func (gb *graphBounds) spectralAt(ctx context.Context, M int) float64 {
	return gb.spec.At(ctx, M, 1).Bound
}

// mincutAt evaluates the baseline bound at memory size M from the cached
// best cut.
func (gb *graphBounds) mincutAt(M int) float64 {
	b := 2 * (float64(gb.cut) - float64(M))
	if b < 0 {
		return 0
	}
	return b
}

// feasibleCell formats a bound cell, or "-" when the graph cannot be
// evaluated at all with memory M (max in-degree exceeds M; the paper drops
// these points, §6.4).
func cell(gb *graphBounds, M int, v float64) string {
	if gb.g.MaxInDeg() > M {
		return "-"
	}
	return fnum(v)
}

func mincutCell(gb *graphBounds, M int) string {
	if gb.cutSkipped {
		return "skipped"
	}
	s := cell(gb, M, gb.mincutAt(M))
	if s != "-" && gb.cutTimedOut {
		s += "*" // sweep time-boxed: valid bound, possibly not the maximum
	}
	return s
}

// figureSweep builds the shared Figure 7/8/9/10 table shape: one row per
// graph size, one spectral and one min-cut column per memory size, plus
// the published-bound x-axis value used in the paper's linearity plots.
func figureSweep(ctx context.Context, name, title, sizeLabel, xLabel string, sizes []int, memories []int,
	build func(int) *graph.Graph, xval func(int) float64, cfg Config) (*Table, error) {

	cols := []string{sizeLabel, "n", xLabel}
	for _, M := range memories {
		cols = append(cols, fmt.Sprintf("spectral_M%d", M))
	}
	for _, M := range memories {
		cols = append(cols, fmt.Sprintf("mincut_M%d", M))
	}
	t := &Table{Name: name, Title: title, Columns: cols}

	for _, size := range sizes {
		g := build(size)
		gb, err := computeBounds(ctx, cfg, g, true)
		if err != nil {
			return nil, err
		}
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%s: %s=%d n=%d spectral=%v mincut=%v\n",
				name, sizeLabel, size, g.N(), gb.spectralTime.Round(time.Millisecond),
				gb.cutTime.Round(time.Millisecond))
		}
		row := []string{inum(size), inum(g.N()), fnum(xval(size))}
		for _, M := range memories {
			row = append(row, cell(gb, M, gb.spectralAt(ctx, M)))
		}
		for _, M := range memories {
			row = append(row, mincutCell(gb, M))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure7 regenerates the FFT sweep (paper Figure 7, both panels: bound vs
// l and bound vs l·2^l).
func Figure7(ctx context.Context, cfg Config, build func(int) *graph.Graph) (*Table, error) {
	return figureSweep(ctx, "fig7", "I/O bound vs l for 2^l-point FFT (spectral vs convex min-cut)",
		"l", "l*2^l", cfg.FFTLevels, cfg.FFTMemories, build,
		func(l int) float64 { return float64(l) * math.Exp2(float64(l)) }, cfg)
}

// Figure8 regenerates the naive matrix multiplication sweep (paper
// Figure 8: bound vs n and vs n³).
func Figure8(ctx context.Context, cfg Config, build func(int) *graph.Graph) (*Table, error) {
	return figureSweep(ctx, "fig8", "I/O bound vs n for n×n naive matmul (spectral vs convex min-cut)",
		"n", "n^3", cfg.MatMulSizes, cfg.MatMulMemories, build,
		func(n int) float64 { return math.Pow(float64(n), 3) }, cfg)
}

// Figure9 regenerates the Strassen sweep (paper Figure 9: bound vs n and
// vs n^(log2 7)).
func Figure9(ctx context.Context, cfg Config, build func(int) *graph.Graph) (*Table, error) {
	return figureSweep(ctx, "fig9", "I/O bound vs n for n×n Strassen matmul (spectral vs convex min-cut)",
		"n", "n^log2(7)", cfg.StrassenSizes, cfg.StrassenMemories, build,
		func(n int) float64 { return math.Pow(float64(n), math.Log2(7)) }, cfg)
}

// Figure10 regenerates the Bellman–Held–Karp sweep (paper Figure 10: bound
// vs l and vs 2^l/l).
func Figure10(ctx context.Context, cfg Config, build func(int) *graph.Graph) (*Table, error) {
	return figureSweep(ctx, "fig10", "I/O bound vs l for l-city Bellman-Held-Karp TSP (spectral vs convex min-cut)",
		"l", "2^l/l", cfg.BHKCities, cfg.BHKMemories, build,
		func(l int) float64 { return math.Exp2(float64(l)) / float64(l) }, cfg)
}

// Figure11 regenerates the runtime comparison (paper Figure 11: seconds to
// compute the spectral vs the convex min-cut bound on Bellman–Held–Karp).
// It times its own solves, so it detaches the sweep's spectrum memo.
func Figure11(ctx context.Context, cfg Config, build func(int) *graph.Graph) (*Table, error) {
	ctx = core.WithMemo(ctx, nil)
	t := &Table{
		Name:    "fig11",
		Title:   "Runtime (s) for computing the lower bound on l-city Bellman-Held-Karp",
		Columns: []string{"l", "n", "spectral_s", "mincut_s", "mincut_note"},
	}
	for _, l := range cfg.BHKCities {
		g := build(l)
		gb, err := computeBounds(ctx, cfg, g, true)
		if err != nil {
			return nil, err
		}
		note := ""
		switch {
		case gb.cutSkipped:
			note = "skipped"
		case gb.cutTimedOut:
			note = "timed-out"
		}
		t.AddRow(inum(l), inum(g.N()),
			fmt.Sprintf("%.3f", gb.spectralTime.Seconds()),
			fmt.Sprintf("%.3f", gb.cutTime.Seconds()),
			note)
	}
	return t, nil
}
