package experiments

import (
	"context"
	"fmt"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/hier"
	"graphio/internal/pebble"
)

// TableHier demonstrates the multi-level extension: per-boundary spectral
// floors (cumulative capacities) against the traffic a simulated schedule
// actually pushes across each boundary of a three-level hierarchy.
func TableHier(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		Name:  "hier",
		Title: "Multi-level hierarchy (extension): per-boundary spectral floors vs simulated transfers (3 levels)",
		Columns: []string{"graph", "n", "caps", "floor_b0", "sim_b0", "floor_b1", "sim_b1",
			"floor_b2", "sim_b2"},
	}
	graphs := []*graph.Graph{
		gen.FFT(7),
		gen.FFT(9),
		gen.BellmanHeldKarp(9),
	}
	for _, g := range graphs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		caps := []int{4, 12, 48}
		if g.MaxInDeg() > caps[0] {
			caps[0] = g.MaxInDeg()
		}
		floors, err := hier.Bounds(ctx, g, caps, core.Options{MaxK: cfg.MaxK, Solver: cfg.Solver})
		if err != nil {
			return nil, err
		}
		sim, err := hier.Simulate(g, pebble.FrontierOrder(g), caps)
		if err != nil {
			return nil, err
		}
		row := []string{g.Name(), inum(g.N()), fmt.Sprintf("%d/%d/%d", caps[0], caps[1], caps[2])}
		for i := range caps {
			if floors[i] > float64(sim.Transfers[i])+1e-6 {
				return nil, fmt.Errorf("hier table: floor above simulated traffic at boundary %d of %s", i, g.Name())
			}
			row = append(row, fnum(floors[i]), inum(sim.Transfers[i]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
