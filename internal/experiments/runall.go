package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/obs"
)

// Runner names one experiment and how to produce its table.
type Runner struct {
	Name string
	Run  func(context.Context, Config) (*Table, error)
}

// Runners returns every experiment in DESIGN.md's index (F7-F11, T1-T3,
// V1, A1, A3), in presentation order.
func Runners() []Runner {
	fft := func(l int) *graph.Graph { return gen.FFT(l) }
	mm := func(n int) *graph.Graph { return gen.NaiveMatMulNary(n) }
	st := func(n int) *graph.Graph { return gen.Strassen(n) }
	bhk := func(l int) *graph.Graph { return gen.BellmanHeldKarp(l) }
	return []Runner{
		{"fig7", func(ctx context.Context, c Config) (*Table, error) { return Figure7(ctx, c, fft) }},
		{"fig8", func(ctx context.Context, c Config) (*Table, error) { return Figure8(ctx, c, mm) }},
		{"fig9", func(ctx context.Context, c Config) (*Table, error) { return Figure9(ctx, c, st) }},
		{"fig10", func(ctx context.Context, c Config) (*Table, error) { return Figure10(ctx, c, bhk) }},
		{"fig11", func(ctx context.Context, c Config) (*Table, error) { return Figure11(ctx, c, bhk) }},
		{"hypercube", TableHypercube},
		{"fft", TableFFT},
		{"er", TableER},
		{"sandwich", TableSandwich},
		{"bestk", TableBestK},
		{"thm4vs5", TableThm4vs5},
		{"parallel", TableParallel},
		{"mincut-partitioned", TablePartitionedMinCut},
		{"scheduler", TableScheduler},
		{"lambda2", TableLambda2},
		{"exact", TableExact},
		{"expansion", TableExpansion},
		{"grid", TableGrid},
		{"hongkung", TableHongKung},
		{"hier", TableHier},
	}
}

// RunAll executes the selected experiments (all of them when names is
// empty), writes <name>.csv per experiment plus a combined report.txt into
// outDir (created if needed, skipped if empty), streams progress to log,
// and returns the tables of the experiments that succeeded.
//
// A failing experiment no longer aborts the sweep: the remaining
// experiments still run, a per-experiment error summary is printed at the
// end, report.txt still covers every successful table, and the joined
// failures come back as the error (so a CLI can exit non-zero while the
// operator keeps all completed work). Cancelling ctx stops the sweep at
// the next experiment boundary — and, via the contexts threaded into the
// solvers, usually mid-experiment — with everything completed so far on
// disk. Config.ExperimentTimeout, when positive, deadlines each experiment
// individually; a timed-out experiment is reported as failed and the sweep
// moves on.
//
// With a non-empty outDir the sweep writes through a Merge, as the dist
// coordinator does, and every artifact is written crash-safely: CSVs and
// report.txt commit atomically (temp file + fsync + rename), and a
// manifest journal in outDir records each experiment's status, config
// hash, and artifact SHA-256 as it completes. outDir is guarded by a
// single-writer lock; a second concurrent sweep into the same directory
// fails with ErrSweepLocked, while a lock left by a killed run is stolen.
// Config.Resume turns the manifest into a checkpoint: see Config.
func RunAll(ctx context.Context, cfg Config, outDir string, names []string, log io.Writer) ([]*Table, error) {
	return runRunners(ctx, cfg, outDir, names, log, Runners())
}

// runRunners is RunAll over an explicit runner set (tests substitute
// failing, blocking, or instrumented runners).
func runRunners(ctx context.Context, cfg Config, outDir string, names []string, log io.Writer, runners []Runner) ([]*Table, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var selected []Runner
	for _, r := range runners {
		if len(want) == 0 || want[r.Name] {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiment matches %v", names)
	}
	var merge *Merge
	if outDir != "" {
		var err error
		if merge, err = OpenMerge(ctx, outDir, cfg, cfg.Resume); err != nil {
			return nil, err
		}
		defer merge.Close()
	}
	selNames := make([]string, len(selected))
	for i, r := range selected {
		selNames[i] = r.Name
	}
	var priorWalls map[string]time.Duration
	if merge != nil {
		priorWalls = merge.walls
	}
	eta := newETATracker(selNames, priorWalls)
	obs.SetSweepStatus(eta.status)
	defer obs.SetSweepStatus(nil)
	// The sweep gets its own telemetry scope and each experiment a child of
	// it, so metric snapshots, probe events and log records are attributable
	// per experiment while the process-wide registry still accumulates the
	// totals (scoped emission always dual-writes the default registry). A
	// scope already on ctx becomes the parent — a distributed worker wraps
	// each shard run in its own worker scope, so /tasks and the metrics
	// dump show worker-<id>/sweep/<experiment> lineage; with no scope on
	// ctx, Child on the nil scope opens a root exactly as before.
	sweepScope := obs.FromContext(ctx).Child("sweep")
	defer sweepScope.Close()
	// One spectrum memo per sweep: a (graph, Laplacian, h, solver) an
	// earlier experiment solved is a lookup for every later one. It dies
	// with the sweep, so no spectrum outlives the tables that used it.
	ctx = core.WithMemo(obs.WithScope(ctx, sweepScope), core.NewMemo())
	type failure struct {
		name string
		err  error
	}
	var tables []*Table
	var failures []failure
	for _, r := range selected {
		if merge != nil {
			if t, ok := merge.reuse(r.Name); ok {
				fmt.Fprintf(log, "== skipping %s (artifact verified against manifest)\n", r.Name)
				obs.IncCtx(ctx, "experiments.resume.skipped")
				eta.skip(r.Name)
				tables = append(tables, t)
				if cfg.AfterExperiment != nil {
					cfg.AfterExperiment(r.Name)
				}
				continue
			}
			if _, seen := merge.prior[r.Name]; seen {
				fmt.Fprintf(log, "== re-running %s (prior run failed, config changed, or artifact does not verify)\n", r.Name)
				obs.IncCtx(ctx, "experiments.resume.reran")
			}
		}
		if err := ctx.Err(); err != nil {
			// The sweep itself was cancelled: stop starting experiments. The
			// tables already produced stay valid and get reported below. No
			// manifest record is written — a not-started experiment keeps
			// whatever state the journal already holds, so a later -resume
			// picks it up exactly where this sweep left off.
			failures = append(failures, failure{r.Name, fmt.Errorf("not started: %w", err)})
			obs.IncCtx(ctx, "experiments.skipped")
			eta.skip(r.Name)
			continue
		}
		fmt.Fprintf(log, "== running %s\n", r.Name)
		runStart := obs.Now()
		eta.begin(r.Name)
		stop := heartbeat(cfg.Progress, r.Name, runStart, eta)
		// Per-experiment child scope: everything the runner (and the solvers
		// under it) emits lands in this scope, its parent sweep scope, and
		// the process totals alike.
		escope := sweepScope.Child(r.Name)
		ectx := obs.WithScope(ctx, escope)
		cancel := context.CancelFunc(func() {})
		if cfg.ExperimentTimeout > 0 {
			ectx, cancel = context.WithTimeout(ectx, cfg.ExperimentTimeout)
		}
		t, err := r.Run(ectx, cfg)
		cancel()
		stop()
		escope.Close()
		elapsed := obs.Since(runStart)
		eta.finish(r.Name, elapsed, err != nil)
		obs.ObserveCtx(ctx, "experiments."+r.Name, elapsed)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "experiments: %s done in %v (%s)\n",
				r.Name, elapsed.Round(time.Millisecond), eta.progressLine())
		}
		if err != nil {
			failures = append(failures, failure{r.Name, err})
			obs.IncCtx(ctx, "experiments.failures")
			fmt.Fprintf(log, "== %s FAILED after %v: %v\n\n", r.Name, elapsed.Round(time.Millisecond), err)
			if merge != nil {
				if mErr := merge.fail(r.Name, elapsed.Milliseconds(), err, "", escope); mErr != nil {
					return tables, mErr
				}
			}
			if cfg.AfterExperiment != nil {
				cfg.AfterExperiment(r.Name)
			}
			continue
		}
		tables = append(tables, t)
		if err := t.WriteText(log); err != nil {
			return tables, err
		}
		fmt.Fprintln(log)
		// Persist each table the moment it exists — atomically, so a crash
		// later in the sweep can cost at most the in-flight experiment, and
		// never leaves a torn CSV for -resume to mistake for a result.
		// Rendering before the file exists is what keeps a failed or crashed
		// runner from leaving a zero-byte or partial CSV behind.
		if merge != nil {
			var csvData bytes.Buffer
			if err := t.WriteCSV(&csvData); err != nil {
				return tables, err
			}
			if err := merge.commit(t, csvData.Bytes(), elapsed.Milliseconds(), "", escope); err != nil {
				return tables, err
			}
		}
		if cfg.AfterExperiment != nil {
			cfg.AfterExperiment(r.Name)
		}
	}
	if merge != nil {
		if _, err := merge.FinishReport(selNames); err != nil {
			return tables, err
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(log, "== %d of %d experiment(s) failed:\n", len(failures), len(selected))
		errs := make([]error, 0, len(failures))
		for _, f := range failures {
			fmt.Fprintf(log, "==   %s: %v\n", f.name, f.err)
			errs = append(errs, fmt.Errorf("experiment %s: %w", f.name, f.err))
		}
		return tables, errors.Join(errs...)
	}
	return tables, nil
}

// heartbeat emits a still-running line to w every interval until the
// returned stop function is called. Long sweeps (minutes per experiment)
// would otherwise look hung between the "== running" banner and the table.
// When span tracking is live (-trace-out or -debug-addr), the line names
// the innermost open span, so the operator sees *which* solve is slow, not
// just that something is; -debug-addr's /progress endpoint serves the full
// open-span stack on demand. With an ETA tracker, the line also carries
// sweep progress and estimated remaining time.
func heartbeat(w io.Writer, name string, start time.Time, eta *etaTracker) (stop func()) {
	if w == nil {
		return func() {}
	}
	const interval = 15 * time.Second
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				where := ""
				if open := obs.OpenSpans(); len(open) > 0 {
					deepest := open[len(open)-1]
					where = fmt.Sprintf(", in %s for %v", deepest.Name,
						time.Duration(deepest.ElapsedNS).Round(time.Second))
				}
				progress := ""
				if eta != nil {
					progress = ", " + eta.progressLine()
				}
				fmt.Fprintf(w, "experiments: %s still running (%v elapsed%s%s)\n",
					name, obs.Since(start).Round(time.Second), progress, where)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
