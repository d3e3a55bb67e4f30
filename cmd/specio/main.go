// Command specio computes spectral I/O lower bounds for computation
// graphs: the command-line face of the library.
//
// Usage:
//
//	specio gen      -graph fft -size 5 -format dot          # emit a graph
//	specio bound    -graph bhk -size 10 -M 16               # spectral bound
//	specio bound    -in g.json -M 8 -laplacian original -p 4
//	specio spectrum -graph fft -size 6 -k 12                # eigenvalues
//	specio mincut   -graph fft -size 5 -M 8 -timeout 30s    # baseline bound
//	specio simulate -graph matmul -size 4 -M 16 -samples 20 # upper bound
//
// Built-in generators: fft, matmul, matmul-nary, strassen, bhk, er,
// inner, chain, tree, grid (grid uses -size for both dimensions). Graphs
// can also be read from -in (JSON, as produced by gen -format json).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/mincut"
	"graphio/internal/obs"
	"graphio/internal/pebble"
	"graphio/internal/persist"
)

// finishObs flushes the observability bundle (profiles, metrics dump) and
// folds any flush error into the command's return value. Commands use it as
//
//	defer finishObs(ofl, &err)
//
// with a named error return, so metrics are written even on failure paths.
func finishObs(c *obs.CLI, err *error) {
	if ferr := c.Finish(); *err == nil {
		*err = ferr
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "bound":
		err = cmdBound(os.Args[2:])
	case "spectrum":
		err = cmdSpectrum(os.Args[2:])
	case "mincut":
		err = cmdMinCut(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "exact":
		err = cmdExact(os.Args[2:])
	case "expansion":
		err = cmdExpansion(os.Args[2:])
	case "hier":
		err = cmdHier(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "specio: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "specio: %v\n", err)
		// Interrupt and wall-clock budget wind down through the pipeline
		// context; exit with the conventional interrupted/timeout statuses.
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(124)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `specio <command> [flags]

commands:
  gen       emit a generated computation graph (JSON or DOT)
  bound     compute the spectral I/O lower bound (Theorems 4/5/6)
  spectrum  print the smallest Laplacian eigenvalues
  mincut    compute the convex min-cut baseline bound
  simulate  simulate evaluation orders and report the best I/O found
  analyze   run every method on one graph and bracket J*
  exact     exact optimal J* by red-blue pebble search (tiny graphs)
  expansion edge-expansion report: λ2, Cheeger interval, sweep cut
  hier      multi-level hierarchy: per-boundary floors vs simulated traffic

run 'specio <command> -h' for the command's flags`)
}

// graphFlags adds the shared graph-selection flags to fs and returns a
// loader to call after parsing.
func graphFlags(fs *flag.FlagSet) func() (*graph.Graph, error) {
	name := fs.String("graph", "", "generator: fft|matmul|matmul-nary|strassen|bhk|er|inner|chain|tree|grid")
	size := fs.Int("size", 4, "generator size parameter (l for fft/bhk/tree, n otherwise)")
	p := fs.Float64("er-p", 0.1, "edge probability for -graph er")
	seed := fs.Int64("er-seed", 1, "random seed for -graph er")
	in := fs.String("in", "", "read a JSON graph from this file instead of generating")
	return func() (*graph.Graph, error) {
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return graph.ReadJSON(f)
		}
		switch strings.ToLower(*name) {
		case "fft":
			return gen.FFT(*size), nil
		case "matmul":
			return gen.NaiveMatMul(*size), nil
		case "matmul-nary":
			return gen.NaiveMatMulNary(*size), nil
		case "strassen":
			return gen.Strassen(*size), nil
		case "bhk", "hypercube", "tsp":
			return gen.BellmanHeldKarp(*size), nil
		case "er":
			return gen.ErdosRenyiDAG(*size, *p, *seed), nil
		case "inner":
			return gen.InnerProduct(*size), nil
		case "chain":
			return gen.Chain(*size), nil
		case "tree":
			return gen.BinaryTreeReduce(*size), nil
		case "grid":
			return gen.Grid2D(*size, *size), nil
		case "":
			return nil, fmt.Errorf("one of -graph or -in is required")
		default:
			return nil, fmt.Errorf("unknown generator %q", *name)
		}
	}
}

func cmdGen(args []string) (err error) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	load := graphFlags(fs)
	format := fs.String("format", "json", "output format: json|dot")
	out := fs.String("o", "", "output file (default stdout)")
	ofl := obs.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error
	if err := ofl.Begin(); err != nil {
		return err
	}
	defer finishObs(ofl, &err)
	g, err := load()
	if err != nil {
		return err
	}
	write := func(w io.Writer) error {
		switch *format {
		case "json":
			return g.WriteJSON(w)
		case "dot":
			return g.WriteDOT(w)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	if *out == "" {
		return write(os.Stdout)
	}
	// Commit atomically: an interrupted or failed render must not replace
	// (or half-write) an existing graph file.
	return persist.WriteTo(*out, write)
}

func parseKind(s string) (laplacian.Kind, error) {
	switch strings.ToLower(s) {
	case "normalized", "t4", "theorem4":
		return laplacian.OutDegreeNormalized, nil
	case "original", "t5", "theorem5":
		return laplacian.Original, nil
	default:
		return 0, fmt.Errorf("unknown laplacian %q (want normalized|original)", s)
	}
}

func cmdBound(args []string) (err error) {
	fs := flag.NewFlagSet("bound", flag.ExitOnError)
	load := graphFlags(fs)
	M := fs.Int("M", 16, "fast memory size in elements")
	maxK := fs.Int("k", 100, "number of eigenvalues / top of the k sweep (h)")
	lap := fs.String("laplacian", "normalized", "normalized (Theorem 4) or original (Theorem 5)")
	procs := fs.Int("p", 1, "processors (Theorem 6 when > 1)")
	solver := fs.String("solver", "auto", "eigensolver: auto|dense|lanczos|chebyshev")
	ofl := obs.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error
	if err := ofl.Begin(); err != nil {
		return err
	}
	defer finishObs(ofl, &err)
	g, err := load()
	if err != nil {
		return err
	}
	kind, err := parseKind(*lap)
	if err != nil {
		return err
	}
	sol, err := core.ParseSolver(*solver)
	if err != nil {
		return err
	}
	start := obs.Now()
	res, err := core.SpectralBoundContext(ofl.Context(), g, core.Options{
		M: *M, MaxK: *maxK, Laplacian: kind, Processors: *procs, Solver: sol,
	})
	if err != nil {
		return err
	}
	elapsed := obs.Since(start)
	fmt.Printf("graph       %s (n=%d, m=%d, max in-deg=%d, max out-deg=%d)\n",
		g.Name(), g.N(), g.M(), g.MaxInDeg(), g.MaxOutDeg())
	fmt.Printf("laplacian   %v   solver %v   h=%d   M=%d   p=%d\n",
		res.Kind, res.SolverUsed, len(res.Eigenvalues), res.M, res.Processors)
	fmt.Printf("bound       %.4f   (best k=%d, raw=%.4f)\n", res.Bound, res.BestK, res.Raw)
	fmt.Printf("elapsed     %v\n", elapsed)
	if res.Degraded {
		fmt.Printf("degraded    the requested solver did not converge; the bound above is still valid\n")
		for _, f := range res.Fallbacks {
			fmt.Printf("            %s\n", f)
		}
	}
	if g.MaxInDeg() > *M {
		fmt.Printf("warning: max in-degree %d exceeds M=%d — no evaluation order is feasible at this M\n",
			g.MaxInDeg(), *M)
	}
	if ofl.Verbose {
		fmt.Println("k  lambda_k  bound(k)")
		for i, v := range res.PerK {
			fmt.Printf("%-3d %-9.5f %.4f\n", i+1, res.Eigenvalues[i], v)
		}
	}
	return nil
}

func cmdSpectrum(args []string) (err error) {
	fs := flag.NewFlagSet("spectrum", flag.ExitOnError)
	load := graphFlags(fs)
	maxK := fs.Int("k", 20, "how many of the smallest eigenvalues to print")
	lap := fs.String("laplacian", "normalized", "normalized or original")
	solver := fs.String("solver", "auto", "auto|dense|lanczos|chebyshev")
	ofl := obs.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error
	if err := ofl.Begin(); err != nil {
		return err
	}
	defer finishObs(ofl, &err)
	g, err := load()
	if err != nil {
		return err
	}
	kind, err := parseKind(*lap)
	if err != nil {
		return err
	}
	sol, err := core.ParseSolver(*solver)
	if err != nil {
		return err
	}
	s, err := core.SolveSpectrum(ofl.Context(), g, core.Options{MaxK: *maxK, Laplacian: kind, Solver: sol})
	if err != nil {
		return err
	}
	for i, v := range s.Eigenvalues {
		fmt.Printf("lambda_%d = %.8f\n", i+1, v)
	}
	return nil
}

func cmdMinCut(args []string) (err error) {
	fs := flag.NewFlagSet("mincut", flag.ExitOnError)
	load := graphFlags(fs)
	M := fs.Int("M", 16, "fast memory size in elements")
	timeout := fs.Duration("timeout", 0, "stop the per-vertex sweep after this long (0 = never)")
	maxV := fs.Int("max-vertices", 0, "evaluate at most this many vertices (0 = all)")
	ofl := obs.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error
	if err := ofl.Begin(); err != nil {
		return err
	}
	defer finishObs(ofl, &err)
	g, err := load()
	if err != nil {
		return err
	}
	res, err := mincut.ConvexMinCutBoundContext(ofl.Context(), g, mincut.Options{M: *M, Timeout: *timeout, MaxVertices: *maxV})
	if err != nil {
		return err
	}
	fmt.Printf("graph     %s (n=%d, m=%d)\n", g.Name(), g.N(), g.M())
	fmt.Printf("bound     %.1f   (C(v*)=%d at vertex %d; %d flows; %v",
		res.Bound, res.BestCut, res.BestVertex, res.Evaluated, res.Elapsed.Round(time.Millisecond))
	if res.TimedOut {
		fmt.Printf("; timed out")
	}
	if res.Interrupted {
		fmt.Printf("; interrupted")
	}
	fmt.Println(")")
	return nil
}

func cmdSimulate(args []string) (err error) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	load := graphFlags(fs)
	M := fs.Int("M", 16, "fast memory size in elements")
	policy := fs.String("policy", "belady", "eviction policy: lru|belady")
	samples := fs.Int("samples", 20, "random topological orders to try")
	seed := fs.Int64("order-seed", 1, "seed for the random order search")
	anneal := fs.Int("anneal", 0, "refine the best order with this many annealing steps")
	ofl := obs.AddFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error
	if err := ofl.Begin(); err != nil {
		return err
	}
	defer finishObs(ofl, &err)
	g, err := load()
	if err != nil {
		return err
	}
	var pol pebble.Policy
	switch strings.ToLower(*policy) {
	case "lru":
		pol = pebble.LRU
	case "belady":
		pol = pebble.Belady
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	res, order, name, err := pebble.BestOrderContext(ofl.Context(), g, *M, pol, *samples, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("graph     %s (n=%d, m=%d)\n", g.Name(), g.N(), g.M())
	fmt.Printf("best I/O  %d  (reads=%d writes=%d, order=%s, policy=%v)\n",
		res.Total(), res.Reads, res.Writes, name, pol)
	if *anneal > 0 {
		_, annealed, err := pebble.AnnealContext(ofl.Context(), g, order, *M, pebble.AnnealOptions{
			Iters: *anneal, Seed: *seed, Policy: pol,
		})
		if err != nil {
			return err
		}
		fmt.Printf("annealed  %d  (reads=%d writes=%d, %d steps)\n",
			annealed.Total(), annealed.Reads, annealed.Writes, *anneal)
	}
	return nil
}
