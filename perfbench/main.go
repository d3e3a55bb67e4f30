// Command perfbench is graphio's benchmark. It drives the public functions
// of the core, laplacian, linalg, graphiod and experiments packages with
// inputs it generates from a seed, checks every output against recorded
// references, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 15, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and calls this binary):
//
//	perfbench --workload dense|iterative|serve|sweep --seed N --seconds S --trace 0|1
//	perfbench record [-dir perfbench/refs]   re-record the references
//	perfbench compare base.out cur.out       name the layers that moved
//
// With --trace 0 the run measures the end-to-end metrics with nothing
// extra in the program's path. With --trace 1 it wraps spans around the
// calls into each layer, writes them to <work>/trace/, and prints the
// per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Default and held-out workload seeds. References cover both; the
// held-out seed is for confirming a change, never for tuning one.
const (
	defaultSeed  = 1
	heldOutSeed  = 9973
	setupRepeats = 21
	runBudget    = 150 * time.Second
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: counts, metrics, and the human
// readable notes (sample counts, shares, file system) printed above the
// JSON line.
type run struct {
	attempted int
	failed    int
	misses    []string
	metrics   map[string]metric
	notes     []string
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// set records a metric; a statistic with no samples (NaN) reads 0.
func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records one attempted operation; it failed if any check missed.
func (r *run) op(misses ...string) {
	r.attempted++
	if len(misses) > 0 {
		r.failed++
		r.misses = append(r.misses, misses...)
	}
}

// params are the command-line settings every workload receives.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for data dirs, sweep output and traces
}

var workloads = map[string]func(context.Context, params) (*run, error){
	"dense":     func(ctx context.Context, p params) (*run, error) { return runBounds(ctx, denseWorkload, p) },
	"iterative": func(ctx context.Context, p params) (*run, error) { return runBounds(ctx, iterativeWorkload, p) },
	"serve":     runServe,
	"sweep":     runSweep,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			exitOn(recordMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "dense, iterative, serve or sweep")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	work := fs.String("work", ".bench_build/work", "scratch directory")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dense|iterative|serve|sweep --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: *work}
	exitOn(os.MkdirAll(p.work, 0o755))
	// A hung solve or job fails the run instead of outliving its budget.
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	r, err := wl(ctx, p)
	exitOn(err)
	if r.attempted < 1 {
		exitOn(errors.New("no operation completed"))
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", *name, *seed, *seconds, *trace)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, m := range r.misses {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}
	out, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	exitOn(err)
	fmt.Println(string(out))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
