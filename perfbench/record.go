package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/experiments"
	"graphio/internal/graph"
	"graphio/internal/graphiod"
	"graphio/internal/laplacian"
	"graphio/internal/persist"
)

// recordDenseCheckMax is the largest graph cross-checked with the dense
// solver.
const recordDenseCheckMax = 2304

// recordMain is `perfbench record`: it recomputes every reference at the
// current commit and writes it under -dir. Run it only when a change is
// meant to alter the bounds; the references are what later commits are
// held to.
func recordMain(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	dir := fs.String("dir", "perfbench/refs", "reference directory to (re)write")
	work := fs.String("work", ".bench_build/work", "scratch directory")
	commit := fs.String("commit", "", "commit the references are recorded at (stored as provenance)")
	_ = fs.Parse(args) // ExitOnError
	ctx := context.Background()

	var specs []spectrum
	add := func(key string, g *graph.Graph, kind laplacian.Kind) error {
		s, err := recordSpectrum(ctx, key, g, kind)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", key, kindName(kind), err)
		}
		fmt.Fprintf(os.Stderr, "%-28s n=%-5d %-9s check %-7s %.2g closed form %s %.2g\n",
			s.Key, s.N, s.Solver, s.Check, s.CheckDiff, s.ClosedForm, s.ClosedFormDiff)
		specs = append(specs, s)
		return nil
	}
	for _, w := range []boundsWorkload{denseWorkload, iterativeWorkload} {
		for _, f := range w.fixed {
			if err := add(f.name, f.build(), laplacian.OutDegreeNormalized); err != nil {
				return err
			}
		}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			in := w.rdagInput(seed, 0, nil)
			if err := add(in.key, in.g, laplacian.OutDegreeNormalized); err != nil {
				return err
			}
		}
	}
	for _, spec := range serveSpecs {
		g, err := graphiod.BuildSpec(spec)
		if err != nil {
			return err
		}
		for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			if err := add(spec, g, kind); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(spectraFile{Commit: *commit, MaxK: coreMaxK, Spectra: specs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if err := persist.WriteFileAtomic(filepath.Join(*dir, "spectra.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return recordSweeps(ctx, *dir, *work)
}

// recordSpectrum computes the h smallest eigenvalues the way the workloads
// do (core.SpectralBoundContext with default options) and cross-checks
// them with a second solver and, where the kind has one, the Theorem 7
// closed form.
func recordSpectrum(ctx context.Context, key string, g *graph.Graph, kind laplacian.Kind) (spectrum, error) {
	n := g.N()
	h := min(coreMaxK, n)
	res, err := core.SpectralBoundContext(ctx, g, core.Options{M: 1, Laplacian: kind})
	if err != nil {
		return spectrum{}, err
	}
	if res.Degraded {
		return spectrum{}, fmt.Errorf("degraded solve: %v", res.Fallbacks)
	}
	s := spectrum{Key: specKey(key, kind), N: n, MaxOutDeg: g.MaxOutDeg(), Solver: res.SolverUsed.String(), Values: res.Eigenvalues}
	// The second solver: Chebyshev for graphs core solves densely, dense
	// up to recordDenseCheckMax vertices, Lanczos above or where the dense
	// solver fails (CheckFailed keeps the reason).
	checks := []core.Solver{core.SolverChebyshev}
	switch {
	case res.SolverUsed == core.SolverDense:
	case n <= recordDenseCheckMax:
		checks = []core.Solver{core.SolverDense, core.SolverLanczos}
	default:
		checks = []core.Solver{core.SolverLanczos}
	}
	var cres *core.Result
	for _, c := range checks {
		s.Check = c.String()
		if cres, err = core.SpectralBoundContext(ctx, g, core.Options{M: 1, Laplacian: kind, Solver: c, NoFallback: true}); err == nil {
			break
		}
		s.CheckFailed += fmt.Sprintf("%s: %v; ", c, err)
	}
	if err != nil {
		return spectrum{}, fmt.Errorf("cross-check: %w", err)
	}
	if s.CheckDiff = maxAbsDiff(s.Values, cres.Eigenvalues); s.CheckDiff > 1e-6 {
		return spectrum{}, fmt.Errorf("%s cross-check differs by %g", s.Check, s.CheckDiff)
	}
	if cf, name := closedForm(key, kind); cf != nil {
		sort.Float64s(cf)
		s.ClosedForm = name
		if s.ClosedFormDiff = maxAbsDiff(s.Values, cf[:h]); s.ClosedFormDiff > 1e-6 {
			return spectrum{}, fmt.Errorf("%s closed form differs by %g", name, s.ClosedFormDiff)
		}
	}
	return s, nil
}

// closedForm returns the Theorem 7 spectrum for butterflies (fft; the
// normalized Laplacian is L/2 since every non-sink has out-degree 2) and
// for the hypercube (bhk, original Laplacian only).
func closedForm(key string, kind laplacian.Kind) ([]float64, string) {
	name, size, ok := strings.Cut(strings.ReplaceAll(key, "-", ":"), ":")
	l, err := strconv.Atoi(size)
	if !ok || err != nil {
		return nil, ""
	}
	switch {
	case name == "fft" && kind == laplacian.Original:
		return analytic.ButterflySpectrum(l), "butterfly"
	case name == "fft":
		vals := analytic.ButterflySpectrum(l)
		for i := range vals {
			vals[i] /= 2
		}
		return vals, "butterfly/2"
	case name == "bhk" && kind == laplacian.Original:
		return analytic.HypercubeSpectrum(l), "hypercube"
	}
	return nil, ""
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// recordSweeps stores the quick sweep's CSV tables for the default and
// held-out seeds, and checks that seedDependent names exactly the tables
// that differ between them (a table that differs must be listed).
func recordSweeps(ctx context.Context, dir, work string) error {
	tables := map[int64]map[string][]byte{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		out := filepath.Join(work, fmt.Sprintf("record-sweep-%d", seed))
		if err := os.RemoveAll(out); err != nil {
			return err
		}
		if _, err := experiments.RunAll(ctx, sweepConfig(seed), out, nil, io.Discard); err != nil {
			return err
		}
		dst := filepath.Join(dir, "sweep", fmt.Sprintf("seed-%d", seed))
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		tables[seed] = map[string][]byte{}
		for _, rn := range experiments.Runners() {
			data, err := os.ReadFile(filepath.Join(out, rn.Name+".csv"))
			if err != nil {
				return err
			}
			if seedDependent[rn.Name] {
				if miss := invariantCSV(data); miss != "" {
					return fmt.Errorf("seed %d %s: the invariant check would reject the reference: %s", seed, rn.Name, miss)
				}
			}
			if err := persist.WriteFileAtomic(filepath.Join(dst, rn.Name+".csv"), data, 0o644); err != nil {
				return err
			}
			tables[seed][rn.Name] = data
		}
		if err := os.RemoveAll(out); err != nil {
			return err
		}
	}
	return checkSeedDependence(tables)
}

// checkSeedDependence fails when a table differs between the default and
// held-out seeds without being listed in seedDependent.
func checkSeedDependence(tables map[int64]map[string][]byte) error {
	for name, a := range tables[defaultSeed] {
		b, err := readCSV(tables[heldOutSeed][name])
		if err != nil {
			return err
		}
		if !seedDependent[name] && compareCSV(a, b, timingColumns[name+".csv"]) != "" {
			return fmt.Errorf("table %s differs between seeds %d and %d but is not in seedDependent", name, defaultSeed, heldOutSeed)
		}
	}
	return nil
}
