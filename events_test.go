package graphio_test

// End-to-end check of the ISSUE 6 acceptance criterion: with the event
// collector on (the -events-out path), all three bound engines — spectral
// (Lanczos/Chebyshev + bisection), min-cut (Dinic), and pebble — emit
// per-iteration probe events, and the dumped log replays as a CRC-clean
// persist journal.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/linalg"
	"graphio/internal/mincut"
	"graphio/internal/obs"
	"graphio/internal/pebble"
	"graphio/internal/persist"
)

func TestAllBoundEnginesEmitEvents(t *testing.T) {
	obs.ResetEvents()
	obs.StartEvents()
	defer func() {
		obs.StopEvents()
		obs.ResetEvents()
	}()

	g := gen.FFT(4)

	// Spectral engine, forced onto the iterative solvers (SolverAuto would
	// take the dense path at this size and skip the instrumented loops).
	for _, s := range []core.Solver{core.SolverLanczos, core.SolverChebyshev} {
		if _, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 4, Solver: s, DenseCutoff: 1}); err != nil {
			t.Fatalf("spectral bound (solver %v): %v", s, err)
		}
	}
	// Bisection refinements (the spectral cross-check path).
	if _, err := linalg.TridiagEigBisectContext(context.Background(), []float64{2, 3, 4, 5}, []float64{1, 1, 1}, 0, 2); err != nil {
		t.Fatal(err)
	}
	// Min-cut engine: Dinic phases + per-flow sweep events.
	if _, err := mincut.ConvexMinCutBoundContext(context.Background(), g, mincut.Options{M: 4}); err != nil {
		t.Fatal(err)
	}
	// Pebble engine: order-search candidates + sampled simulation steps.
	if _, _, _, err := pebble.BestOrderContext(context.Background(), g, 4, pebble.Belady, 2, 1); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := obs.DumpEvents(path); err != nil {
		t.Fatal(err)
	}
	recs, err := persist.ReadJournal(path)
	if err != nil {
		t.Fatalf("event log not a clean journal: %v", err)
	}
	probes := map[string]int{}
	for _, r := range recs {
		var ev struct {
			Probe string `json:"probe"`
		}
		if err := json.Unmarshal(r, &ev); err != nil {
			t.Fatalf("unparseable event payload %s: %v", r, err)
		}
		probes[ev.Probe]++
	}
	for _, want := range []string{
		"linalg.lanczos", "linalg.cheb", "linalg.bisect",
		"maxflow.dinic", "mincut.sweep",
		"pebble.simulate", "pebble.best_order",
	} {
		if probes[want] == 0 {
			t.Errorf("no events from probe %s (got %v)", want, probes)
		}
	}
}
