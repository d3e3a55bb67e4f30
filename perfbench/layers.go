package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"graphio/internal/experiments"
)

// layerMetric is one per-layer metric the traced run prints.
type layerMetric struct {
	name, unit, better string
}

// perLayerCatalog lists every per-layer metric, in BENCHMARK.json order.
// Each traced run prints all of them; a layer its workload bypasses (or
// cannot observe from outside, like the solvers inside a sweep) reads 0.
func perLayerCatalog() []layerMetric {
	c := []layerMetric{
		{"gen.build_s", "s", "lower"},
		{"laplacian.build_s", "s", "lower"},
		{"linalg.dense_s", "s", "lower"},
		{"linalg.dense_gflops", "GFLOP/s", "higher"},
		{"linalg.cheb_s", "s", "lower"},
		{"linalg.cheb_self_s", "s", "lower"},
		{"linalg.matvecs", "count", "lower"},
		{"linalg.matvec_busy_s", "s", "lower"},
		{"linalg.matvec_gbps", "GB/s", "higher"},
	}
	for _, w := range []boundsWorkload{denseWorkload, iterativeWorkload} {
		for _, n := range w.inputNames() {
			c = append(c, layerMetric{"core.bound_s." + n, "s", "lower"})
		}
	}
	c = append(c,
		layerMetric{"core.ksweep_s", "s", "lower"},
		layerMetric{"core.fallbacks", "count", "lower"},
		layerMetric{"core.degraded_ratio", "ratio", "lower"},
		layerMetric{"graphiod.submit_p50_s", "s", "lower"},
		layerMetric{"graphiod.hit_p50_s", "s", "lower"},
		layerMetric{"graphiod.hit_ratio", "ratio", "higher"},
		layerMetric{"graphiod.run_p50_s", "s", "lower"},
		layerMetric{"graphiod.wait_p50_s", "s", "lower"},
		layerMetric{"graphiod.polls_per_job", "count", "lower"},
		layerMetric{"graphiod.rejected", "count", "lower"},
	)
	for _, rn := range experiments.Runners() {
		c = append(c, layerMetric{"experiments." + rn.Name + "_s", "s", "lower"})
	}
	return append(c, layerMetric{"trace.overhead_ratio", "ratio", "lower"})
}

// setAll sets a traced run's per-layer metrics and gives every one it did
// not measure a 0.
func (r *run) setAll(ms map[string]metric) {
	for _, lm := range perLayerCatalog() {
		r.set(lm.name, ms[lm.name].Value, lm.unit)
	}
}

// layerOf maps a per-layer time metric to the layer it times; other
// metrics (counts, rates, per-input totals) map to "".
func layerOf(name string) string {
	switch {
	case name == "gen.build_s":
		return "gen"
	case name == "laplacian.build_s":
		return "laplacian"
	case name == "linalg.dense_s", name == "linalg.cheb_s":
		return "linalg"
	case name == "core.ksweep_s":
		return "core"
	case name == "graphiod.submit_p50_s", name == "graphiod.wait_p50_s", name == "graphiod.run_p50_s":
		return "graphiod"
	case strings.HasPrefix(name, "experiments.") && strings.HasSuffix(name, "_s"):
		return "experiments"
	}
	return ""
}

// Thresholds for calling a layer's time moved: a relative change, and an
// absolute one of at least movedAbs and movedShare of all layers' time, so
// that a GC pause or page faults in a millisecond layer never count.
const (
	movedRel   = 0.2
	movedAbs   = 0.005 // seconds
	movedShare = 0.02
)

// layerMove is one layer's time in two traced runs.
type layerMove struct {
	layer     string
	base, cur float64
}

// movedLayers compares two traced runs' per-layer metrics and returns the
// layers whose time moved, the largest absolute change first.
func movedLayers(base, cur map[string]float64) []layerMove {
	sums := map[string]*layerMove{}
	for name, v := range base {
		if l := layerOf(name); l != "" {
			if sums[l] == nil {
				sums[l] = &layerMove{layer: l}
			}
			sums[l].base += v
			sums[l].cur += cur[name]
		}
	}
	total := 0.0
	for _, lm := range sums {
		total += lm.base
	}
	floor := math.Max(movedAbs, movedShare*total)
	var moved []layerMove
	for _, lm := range sums {
		d := math.Abs(lm.cur - lm.base)
		if d > floor && d > movedRel*lm.base {
			moved = append(moved, *lm)
		}
	}
	sort.Slice(moved, func(i, j int) bool {
		return math.Abs(moved[i].cur-moved[i].base) > math.Abs(moved[j].cur-moved[j].base)
	})
	return moved
}

// compareMain is `perfbench compare base.out cur.out`: it reads the result
// line of two traced runs of one workload and names the layers that moved.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare base.out cur.out (outputs of two --trace 1 runs)")
	}
	var runs [2]map[string]float64
	for i, path := range args {
		m, err := readResultLine(path)
		if err != nil {
			return err
		}
		runs[i] = m
	}
	moved := movedLayers(runs[0], runs[1])
	if len(moved) == 0 {
		fmt.Printf("no layer moved by more than %.0f%% and the larger of %.0f ms and %.0f%% of all layers' time\n", movedRel*100, movedAbs*1000, movedShare*100)
		return nil
	}
	for _, lm := range moved {
		fmt.Printf("moved: %-12s %.4f s -> %.4f s (%+.1f%%)\n", lm.layer, lm.base, lm.cur, 100*(lm.cur-lm.base)/lm.base)
	}
	return nil
}

// readResultLine parses the last line of a saved benchmark output.
func readResultLine(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	out := map[string]float64{}
	for n, m := range res.Metrics {
		out[n] = m.Value
	}
	return out, nil
}
