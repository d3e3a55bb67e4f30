package experiments

import (
	"context"
	"strings"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
)

func TestMinCutSkippedAboveSizeCap(t *testing.T) {
	cfg := tiny()
	cfg.MinCutMaxN = 10 // everything in the sweep is bigger
	tab, err := Figure7(context.Background(), cfg, func(l int) *graph.Graph { return gen.FFT(l) })
	if err != nil {
		t.Fatal(err)
	}
	mcCol := 3 + len(cfg.FFTMemories)
	for _, row := range tab.Rows {
		if row[mcCol] != "skipped" {
			t.Errorf("min-cut cell %q, want skipped: %v", row[mcCol], row)
		}
	}
}

func TestFigureColumnsShape(t *testing.T) {
	cfg := tiny()
	cfg.StrassenSizes = []int{2, 4}
	tab, err := Figure9(context.Background(), cfg, func(n int) *graph.Graph { return gen.Strassen(n) })
	if err != nil {
		t.Fatal(err)
	}
	wantCols := 3 + 2*len(cfg.StrassenMemories)
	if len(tab.Columns) != wantCols {
		t.Fatalf("columns=%d want %d", len(tab.Columns), wantCols)
	}
	for _, c := range tab.Columns[3 : 3+len(cfg.StrassenMemories)] {
		if !strings.HasPrefix(c, "spectral_M") {
			t.Errorf("unexpected column %q", c)
		}
	}
}

func TestMincutAtDerivation(t *testing.T) {
	// mincutAt must reproduce 2·(cut − M) clamped at 0.
	gb := &graphBounds{cut: 10}
	if got := gb.mincutAt(4); got != 12 {
		t.Errorf("mincutAt(4)=%g want 12", got)
	}
	if got := gb.mincutAt(10); got != 0 {
		t.Errorf("mincutAt(10)=%g want 0", got)
	}
	if got := gb.mincutAt(99); got != 0 {
		t.Errorf("mincutAt(99)=%g want 0", got)
	}
}

func TestTimedOutMincutCellMarked(t *testing.T) {
	g := gen.FFT(3)
	gb := &graphBounds{g: g, cut: 8, cutTimedOut: true}
	cell := mincutCell(gb, 2)
	if !strings.HasSuffix(cell, "*") {
		t.Errorf("timed-out cell %q should carry the * marker", cell)
	}
	gb.cutSkipped = true
	if mincutCell(gb, 2) != "skipped" {
		t.Error("skipped cell not marked")
	}
}

func TestInfeasibleCellDash(t *testing.T) {
	g := gen.BellmanHeldKarp(5) // max in-degree 5
	gb := &graphBounds{g: g}
	if cell(gb, 2, 123) != "-" {
		t.Error("in-degree > M should render as '-'")
	}
	if cell(gb, 8, 123) == "-" {
		t.Error("feasible point wrongly dropped")
	}
}
