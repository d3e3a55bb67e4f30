package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"graphio/internal/experiments"
	"graphio/internal/obs"
)

// The sweep workload runs experiments.RunAll with QuickConfig and Seed set
// to the workload seed, into a fresh directory, back to back until the
// measured phase ends (at least minSweeps times). It is the only workload that
// reaches mincut, pebble, redblue, hier and the experiments/persist
// commit path, and its thm4vs5 table re-solves the spectrum for each M.

// seedDependent names the tables whose cells depend on Config.Seed. On a
// seed without recorded references they get invariant checks only; every
// other table is compared with the default seed's reference.
var seedDependent = map[string]bool{
	"er": true, "sandwich": true, "scheduler": true, "exact": true, "lambda2": true, "expansion": true,
}

// minSweeps is the fewest sweeps a run makes: one sweep takes most of the
// run's time, and a second keeps the latency median from resting on one
// sample.
const minSweeps = 2

// timingColumns are wall-clock cells, never compared.
var timingColumns = map[string]map[string]bool{"fig11.csv": {"spectral_s": true, "mincut_s": true}}

func sweepConfig(seed int64) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	return cfg
}

func runSweep(ctx context.Context, p params) (*run, error) {
	r := newRun()
	base := filepath.Join(p.work, fmt.Sprintf("sweep-%d", os.Getpid()))
	defer os.RemoveAll(base)
	var refs sweepRefs
	setup, err := timeSetup(func() (err error) {
		if refs, err = loadSweepRefs(); err != nil {
			return err
		}
		if err := os.RemoveAll(base); err != nil {
			return err
		}
		return os.MkdirAll(base, 0o755)
	})
	if err != nil {
		return nil, err
	}
	cfg := sweepConfig(p.seed)
	if p.trace {
		return tracedSweep(ctx, p, r, cfg, base, refs)
	}

	var walls []float64
	var errs []error
	start := obs.Now()
	for i := 0; i < minSweeps || obs.Since(start) < p.seconds; i++ {
		t0 := obs.Now()
		_, err := experiments.RunAll(ctx, cfg, filepath.Join(base, strconv.Itoa(i)), nil, io.Discard)
		walls = append(walls, obs.Since(t0).Seconds())
		errs = append(errs, err)
	}
	wall := obs.Since(start)
	r.set("setup_s", setup, "s")
	r = summarizeSweep(r, p.seed, base, refs, errs, walls, wall)
	r.set("heap_retained_mb", retainedMB(), "MB")
	return r, nil
}

// summarizeSweep checks every sweep of the measured phase and sets the
// end-to-end metrics.
func summarizeSweep(r *run, seed int64, base string, refs sweepRefs, errs []error, walls []float64, wall time.Duration) *run {
	for i, err := range errs {
		checkSweep(r, filepath.Join(base, strconv.Itoa(i)), seed, refs, err)
	}
	r.set("ops_per_s", float64(len(walls))/wall.Seconds(), "1/s")
	r.set("op_p50_s", median(walls), "s")
	r.set("op_p90_s", quantile(walls, 0.9), "s")
	r.note("op = one experiments.RunAll of all %d experiments (QuickConfig, Seed %d); sweep_s per sweep %v",
		len(experiments.Runners()), seed, walls)
	r.note("latency samples %d (too few for a tail: p90 reads as the slowest sweep); fail_ratio %d/%d experiments",
		len(walls), r.failed, r.attempted)
	r.note("setup_s is the median of %d set-ups (reference tables parsed, fresh output dir)", setupRepeats)
	return r
}

// tracedSweep runs one untraced sweep, then one with a span per experiment
// taken from Config.AfterExperiment.
func tracedSweep(ctx context.Context, p params, r *run, cfg experiments.Config, base string, refs sweepRefs) (*run, error) {
	t0 := obs.Now()
	_, err := experiments.RunAll(ctx, cfg, filepath.Join(base, "untraced"), nil, io.Discard)
	wall1 := obs.Since(t0)
	checkSweep(r, filepath.Join(base, "untraced"), p.seed, refs, err)

	tr := newTracer()
	ms := map[string]metric{}
	root := tr.start("experiments.runall", "sweep", nil)
	cur := tr.start("experiment", "", root)
	cfg.AfterExperiment = func(name string) {
		cur.Req = name
		cur.end()
		ms["experiments."+name+"_s"] = metric{cur.dur().Seconds(), "s"}
		cur = tr.start("experiment", "", root)
	}
	dir := filepath.Join(base, "traced")
	_, err = experiments.RunAll(ctx, cfg, dir, nil, io.Discard)
	cur.Req = "report"
	cur.end()
	root.end()
	checkSweep(r, dir, p.seed, refs, err)
	ms["trace.overhead_ratio"] = metric{ratio(root.dur().Seconds(), wall1.Seconds()), "ratio"}
	r.setAll(ms)
	path, err := tr.writeFile(filepath.Join(p.work, "trace"), "sweep", p.seed)
	if err != nil {
		return nil, err
	}
	r.note("untraced sweep %.2f s, traced sweep %.2f s; spans in %s", wall1.Seconds(), root.dur().Seconds(), path)
	return r, nil
}

// checkSweep is the sweep correctness gate: one operation per experiment.
// Every numeric cell (fig11's timing columns aside) must match the
// reference table of this seed, or of the default seed for tables that do
// not depend on it; seed-dependent tables on other seeds get invariant
// checks (no NaN, nothing negative).
func checkSweep(r *run, dir string, seed int64, refs sweepRefs, runErr error) {
	failed := 0
	for _, rn := range experiments.Runners() {
		name := rn.Name + ".csv"
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			r.op(fmt.Sprintf("sweep seed %d: %s: %v", seed, name, err))
			failed++
			continue
		}
		want, ok := refs[seed][name]
		if !ok && !seedDependent[rn.Name] {
			want, ok = refs[defaultSeed][name]
		}
		var miss string
		if ok {
			miss = compareCSV(got, want, timingColumns[name])
		} else {
			miss = invariantCSV(got)
		}
		if miss != "" {
			miss = fmt.Sprintf("sweep seed %d: %s: %s", seed, name, miss)
			failed++
		}
		r.op(nonEmpty(miss)...)
	}
	if runErr != nil && failed == 0 {
		r.op(fmt.Sprintf("sweep seed %d: RunAll: %v", seed, runErr))
	}
	if err := os.RemoveAll(dir); err != nil {
		r.note("could not remove %s: %v", dir, err)
	}
}

func readCSV(data []byte) ([][]string, error) {
	return csv.NewReader(bytes.NewReader(data)).ReadAll()
}

// compareCSV compares a table with its reference cell by cell. Numbers
// agree within 1e-6 relative or one unit in the reference's last printed
// decimal, so a round-off flip in a formatted digit is not a miss; any
// other cell must match exactly.
func compareCSV(got []byte, w [][]string, skip map[string]bool) string {
	g, err := readCSV(got)
	if err != nil {
		return err.Error()
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d rows, reference has %d", len(g), len(w))
	}
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Sprintf("row %d has %d cells, reference has %d", i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			if i > 0 && skip[w[0][j]] {
				continue
			}
			if !cellMatches(g[i][j], w[i][j]) {
				return fmt.Sprintf("row %d column %q: %q, reference %q", i, w[0][j], g[i][j], w[i][j])
			}
		}
	}
	return ""
}

func cellMatches(got, want string) bool {
	wv, werr := strconv.ParseFloat(want, 64)
	gv, gerr := strconv.ParseFloat(got, 64)
	if werr != nil || gerr != nil || !isFinite(wv) || !isFinite(gv) {
		return got == want
	}
	tol := 1e-6 * math.Max(math.Abs(wv), math.Abs(gv))
	if dot := strings.IndexByte(want, '.'); dot >= 0 && !strings.ContainsAny(want, "eE") {
		tol = math.Max(tol, math.Pow(10, -float64(len(want)-dot-1))*1.000001)
	}
	return math.Abs(gv-wv) <= tol
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// invariantCSV checks a table without a reference: it parses, has rows,
// and no numeric cell is NaN or negative. "inf" stays allowed: ratio
// columns print it when the denominator bound is 0.
func invariantCSV(got []byte) string {
	g, err := readCSV(got)
	if err != nil {
		return err.Error()
	}
	if len(g) < 2 {
		return "no data rows"
	}
	for i, row := range g[1:] {
		for j, cell := range row {
			if v, err := strconv.ParseFloat(cell, 64); err == nil && (math.IsNaN(v) || v < 0) {
				return fmt.Sprintf("row %d column %q: %q is NaN or negative", i+1, g[0][j], cell)
			}
		}
	}
	return ""
}
