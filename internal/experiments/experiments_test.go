package experiments

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/obs"
)

func tiny() Config {
	cfg := QuickConfig()
	cfg.FFTLevels = []int{3, 4}
	cfg.FFTMemories = []int{4, 8}
	cfg.MatMulSizes = []int{2, 4}
	cfg.MatMulMemories = []int{8, 16}
	cfg.StrassenSizes = []int{2, 4}
	cfg.StrassenMemories = []int{8}
	cfg.BHKCities = []int{4, 5, 6}
	cfg.BHKMemories = []int{4, 8}
	cfg.ERSizes = []int{48}
	cfg.SandwichSamples = 4
	return cfg
}

// runCountingSolves runs a table under a fresh obs scope and returns it
// with the number of spectra it solved (core.spectrum spans).
func runCountingSolves(t *testing.T, cfg Config, table func(context.Context, Config) (*Table, error)) (*Table, int64) {
	t.Helper()
	obs.Enable(true)
	defer obs.Enable(false)
	sc := obs.NewScope(t.Name())
	defer sc.Close()
	tab, err := table(obs.WithScope(context.Background(), sc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab, sc.Registry().Snapshot().Timers["span.core.spectrum"].Count
}

// checkOneSolvePerGraph asserts that a table solved each (graph, kind)
// pair with a feasible M exactly once. A graph has a feasible M when it
// has a row; rows name their graph in the first two columns.
func checkOneSolvePerGraph(t *testing.T, tab *Table, solves int64, kinds int) {
	t.Helper()
	graphs := map[[2]string]bool{}
	for _, row := range tab.Rows {
		graphs[[2]string{row[0], row[1]}] = true
	}
	if want := int64(len(graphs) * kinds); solves != want {
		t.Errorf("%s solved %d spectra, want %d (%d graphs × %d Laplacians)", tab.Name, solves, want, len(graphs), kinds)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Name: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var csvBuf, txtBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := csvBuf.String(); got != "a,bb\n1,2\n" {
		t.Errorf("csv: %q", got)
	}
	if err := tab.WriteText(&txtBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txtBuf.String(), "demo") {
		t.Error("text output missing title")
	}
}

func TestTableAddRowPanicsOnWidthMismatch(t *testing.T) {
	tab := &Table{Name: "x", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Error("mismatched row accepted")
		}
	}()
	tab.AddRow("1", "2")
}

func parseCell(t *testing.T, s string) (float64, bool) {
	t.Helper()
	s = strings.TrimSuffix(s, "*")
	if s == "-" || s == "skipped" || s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q", s)
	}
	return v, true
}

func TestFigure7ShapeAndMonotonicity(t *testing.T) {
	cfg := tiny()
	tab, err := Figure7(context.Background(), cfg, func(l int) *graph.Graph { return gen.FFT(l) })
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.FFTLevels) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Reproduction shape checks: spectral grows with l and dominates the
	// min-cut baseline at every point (the paper's headline comparison).
	specCol := 3 // first spectral column (M = FFTMemories[0])
	mcCol := 3 + len(cfg.FFTMemories)
	var prev float64 = -1
	for _, row := range tab.Rows {
		sv, ok := parseCell(t, row[specCol])
		if !ok {
			continue
		}
		if sv < prev {
			t.Errorf("spectral bound decreased with l: %v", tab.Rows)
		}
		prev = sv
		if mv, ok := parseCell(t, row[mcCol]); ok && mv > sv+1e-9 {
			t.Errorf("min-cut %g exceeds spectral %g at row %v", mv, sv, row)
		}
	}
}

func TestFigure10SpectralPositiveAndDominant(t *testing.T) {
	cfg := tiny()
	cfg.BHKCities = []int{6, 7, 8}
	cfg.BHKMemories = []int{8} // M ≥ max in-degree so no point is dropped
	tab, err := Figure10(context.Background(), cfg, func(l int) *graph.Graph { return gen.BellmanHeldKarp(l) })
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if v, ok := parseCell(t, last[3]); !ok || v <= 0 {
		t.Errorf("BHK l=8 M=8 spectral bound should be positive: %v", last)
	}
	// Points where in-degree exceeds M must be dropped, not zeroed.
	cfg.BHKMemories = []int{4}
	tab, err = Figure10(context.Background(), cfg, func(l int) *graph.Graph { return gen.BellmanHeldKarp(l) })
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] != "4" && row[3] != "-" {
			t.Errorf("l=%s M=4 should be dropped (in-degree > M): %v", row[0], row)
		}
	}
}

func TestFigure11ReportsRuntimes(t *testing.T) {
	cfg := tiny()
	cfg.BHKCities = []int{4, 5}
	tab, err := Figure11(context.Background(), cfg, func(l int) *graph.Graph { return gen.BellmanHeldKarp(l) })
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if _, err := strconv.ParseFloat(row[2], 64); err != nil {
			t.Errorf("bad spectral runtime cell %q", row[2])
		}
		if _, err := strconv.ParseFloat(row[3], 64); err != nil {
			t.Errorf("bad mincut runtime cell %q", row[3])
		}
	}
}

func TestTableHypercubeClosedFormMatchesComputed(t *testing.T) {
	cfg := tiny()
	tab, err := TableHypercube(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		closed, ok1 := parseCell(t, row[3])
		computed, ok2 := parseCell(t, row[5])
		if ok1 && ok2 {
			diff := closed - computed
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6*(1+closed) {
				t.Errorf("closed form %g != computed %g in row %v", closed, computed, row)
			}
		}
	}
}

func TestTableFFTRatioWithinLogFactor(t *testing.T) {
	cfg := tiny()
	cfg.FFTLevels = []int{10, 12}
	cfg.FFTMemories = []int{4}
	tab, err := TableFFT(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio, ok := parseCell(t, row[7])
		if !ok {
			continue
		}
		// §5.2: the closed form is at most a 1/log2 M factor below
		// Hong-Kung; it must never exceed it (HK is asymptotically tight),
		// and for M ≪ l it is positive.
		if ratio > 1.5 {
			t.Errorf("closed/HK ratio %g too large in row %v", ratio, row)
		}
		if ratio <= 0 {
			t.Errorf("ratio %g should be positive for M ≪ l: %v", ratio, row)
		}
	}
	// The closed form is asymptotic: with M comparable to l it goes
	// trivial (clamped to 0), which must surface as a zero cell, not an
	// error.
	cfg.FFTLevels = []int{8}
	cfg.FFTMemories = []int{16}
	tab, err = TableFFT(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := parseCell(t, tab.Rows[0][2]); !ok || v != 0 {
		t.Errorf("l=8 M=16 closed form should clamp to 0: %v", tab.Rows[0])
	}
}

func TestTableERRuns(t *testing.T) {
	cfg := tiny()
	tab, err := TableER(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*len(cfg.ERSizes) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if v, ok := parseCell(t, row[4]); !ok || v < 0 {
			t.Errorf("computed bound cell %q", row[4])
		}
	}
}

func TestTableSandwichHoldsInternally(t *testing.T) {
	cfg := tiny()
	// TableSandwich returns an error if any lower bound exceeds the
	// simulated upper bound, so success is the assertion.
	tab, solves := runCountingSolves(t, cfg, TableSandwich)
	if len(tab.Rows) == 0 {
		t.Fatal("sandwich table empty")
	}
	checkOneSolvePerGraph(t, tab, solves, 2)
}

func TestTableBestKStaysBelowCap(t *testing.T) {
	cfg := tiny()
	tab, err := TableBestK(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		bestK, _ := parseCell(t, row[3])
		h, _ := parseCell(t, row[4])
		if bestK > h {
			t.Errorf("best k %g exceeds h %g: %v", bestK, h, row)
		}
	}
}

func TestTableThm4vs5Tightness(t *testing.T) {
	cfg := tiny()
	tab, solves := runCountingSolves(t, cfg, TableThm4vs5)
	checkOneSolvePerGraph(t, tab, solves, 2)
	for _, row := range tab.Rows {
		t4, ok1 := parseCell(t, row[3])
		t5, ok2 := parseCell(t, row[4])
		if ok1 && ok2 && t4 < t5-1e-9 {
			t.Errorf("Theorem 4 bound below Theorem 5 in row %v", row)
		}
	}
}

func TestTableParallelMonotone(t *testing.T) {
	cfg := tiny()
	// TableParallel validates monotonicity internally (errors on
	// violation); also check cells parse and p1 dominates p16.
	tab, err := TableParallel(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		p1, ok1 := parseCell(t, row[3])
		p16, ok16 := parseCell(t, row[7])
		if ok1 && ok16 && p16 > p1+1e-9 {
			t.Errorf("p16 bound above p1 in row %v", row)
		}
	}
}

func TestTablePartitionedMinCutTrivial(t *testing.T) {
	cfg := tiny()
	tab, err := TablePartitionedMinCut(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The §6.3 claim: the 2M-part variant collapses on complex graphs.
	// Check it never exceeds the whole-graph variant by a large factor and
	// is zero for at least one complex graph in the set.
	zeroSeen := false
	for _, row := range tab.Rows {
		parted, ok := parseCell(t, row[4])
		if ok && parted == 0 {
			zeroSeen = true
		}
	}
	if !zeroSeen {
		t.Errorf("expected the partitioned variant to be trivial somewhere: %v", tab.Rows)
	}
}

func TestTableSchedulerBracketsJStar(t *testing.T) {
	cfg := tiny()
	// Internal consistency (lower ≤ best) is enforced by the function;
	// it returning without error is the assertion.
	tab, err := TableScheduler(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("scheduler table empty")
	}
}

func TestTableLambda2NearPrediction(t *testing.T) {
	cfg := tiny()
	cfg.ERSizes = []int{256}
	tab, err := TableLambda2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio, ok := parseCell(t, row[4])
		if !ok {
			t.Fatalf("bad ratio cell %q", row[4])
		}
		// Concentration is asymptotic; at n=256 expect the sampled λ2
		// within a factor ~2 of the prediction.
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("λ2 ratio %g far from prediction: %v", ratio, row)
		}
	}
}

func TestTableExactGroundTruth(t *testing.T) {
	cfg := tiny()
	// TableExact enforces lower ≤ J* ≤ simulated internally; returning
	// without error plus non-empty rows is the assertion.
	tab, solves := runCountingSolves(t, cfg, TableExact)
	if len(tab.Rows) == 0 {
		t.Fatal("exact table empty")
	}
	checkOneSolvePerGraph(t, tab, solves, 1)
	for _, row := range tab.Rows {
		exact, ok1 := parseCell(t, row[5])
		sim, ok2 := parseCell(t, row[6])
		if ok1 && ok2 && exact > sim {
			t.Errorf("J* %g above simulated %g: %v", exact, sim, row)
		}
	}
}

func TestTableExpansionConsistent(t *testing.T) {
	cfg := tiny()
	tab, err := TableExpansion(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		k2, ok1 := parseCell(t, row[6])
		full, ok2 := parseCell(t, row[7])
		if ok1 && ok2 && k2 > full+1e-9 {
			t.Errorf("k=2 bound above the full sweep: %v", row)
		}
	}
}

func TestTableGridSandwich(t *testing.T) {
	cfg := tiny()
	// Internal lower ≤ simulated check is enforced by the function.
	tab, solves := runCountingSolves(t, cfg, TableGrid)
	checkOneSolvePerGraph(t, tab, solves, 1)
	for _, row := range tab.Rows {
		fr, ok1 := parseCell(t, row[5])
		kahn, ok2 := parseCell(t, row[6])
		if ok1 && ok2 && fr > kahn {
			t.Errorf("frontier order worse than kahn on the grid: %v", row)
		}
	}
}

func TestTableHongKungConsistent(t *testing.T) {
	cfg := tiny()
	tab, solves := runCountingSolves(t, cfg, TableHongKung) // internal soundness checks error out
	if len(tab.Rows) == 0 {
		t.Fatal("hongkung table empty")
	}
	checkOneSolvePerGraph(t, tab, solves, 1)
	for _, row := range tab.Rows {
		nt, ok1 := parseCell(t, row[5])
		tot, ok2 := parseCell(t, row[7])
		if ok1 && ok2 && nt > tot {
			t.Errorf("non-trivial J* above total J*: %v", row)
		}
	}
}

func TestComputeBoundsMatchesDirectSpectralBound(t *testing.T) {
	// The cached spectrum, evaluated per M, must agree exactly with a
	// direct Theorem 4 SpectralBound call at that M.
	cfg := tiny()
	g := gen.FFT(4)
	gb, err := computeBounds(context.Background(), cfg, g, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, M := range []int{2, 4, 8} {
		direct, err := core.SpectralBound(g, core.Options{
			M: M, MaxK: cfg.MaxK, Solver: cfg.Solver, Laplacian: laplacian.OutDegreeNormalized,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := gb.spectralAt(context.Background(), M); got != direct.Bound {
			t.Errorf("M=%d: cached %g vs direct %g", M, got, direct.Bound)
		}
	}
}

func TestTableHierFloorsHold(t *testing.T) {
	cfg := tiny()
	tab, err := TableHier(context.Background(), cfg) // internal floor ≤ traffic checks error out
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("hier table empty")
	}
}

func TestRunAllWritesFiles(t *testing.T) {
	cfg := tiny()
	dir := t.TempDir()
	tables, err := RunAll(context.Background(), cfg, dir, []string{"fig11", "er"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables=%d", len(tables))
	}
	for _, name := range []string{"fig11.csv", "er.csv", "report.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if _, err := RunAll(context.Background(), cfg, "", []string{"nope"}, io.Discard); err == nil {
		t.Error("unknown experiment name accepted")
	}
}
