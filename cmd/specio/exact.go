package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"graphio/internal/core"
	"graphio/internal/expansion"
	"graphio/internal/hier"
	"graphio/internal/obs"
	"graphio/internal/pebble"
	"graphio/internal/redblue"
)

// cmdExact runs the exact red-blue pebble solver (tiny graphs only) and
// reports the true J*.
func cmdExact(args []string) (err error) {
	fs := flag.NewFlagSet("exact", flag.ExitOnError)
	load := graphFlags(fs)
	M := fs.Int("M", 2, "fast memory size in elements")
	maxStates := fs.Int("max-states", 0, "abort beyond this many search states (0 = default)")
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
	res, err := redblue.OptimalContext(ofl.Context(), g, *M, redblue.Options{MaxStates: *maxStates})
	if err != nil {
		return err
	}
	fmt.Printf("graph   %s (n=%d, m=%d)\n", g.Name(), g.N(), g.M())
	fmt.Printf("exact   J* = %d non-trivial I/Os at M=%d (%d states expanded)\n",
		res.IO, *M, res.States)
	return nil
}

// cmdHier analyzes a graph on a multi-level hierarchy: per-boundary
// Theorem 4 floors plus simulated traffic for two schedules.
func cmdHier(args []string) (err error) {
	fs := flag.NewFlagSet("hier", flag.ExitOnError)
	load := graphFlags(fs)
	capsFlag := fs.String("caps", "4,16,64", "comma-separated level capacities, fastest first")
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
	var caps []int
	for _, part := range strings.Split(*capsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -caps entry %q: %w", part, err)
		}
		caps = append(caps, v)
	}
	floors, err := hier.Bounds(ofl.Context(), g, caps, core.Options{})
	if err != nil {
		return err
	}
	sim, err := hier.Simulate(g, pebble.FrontierOrder(g), caps)
	if err != nil {
		return err
	}
	fmt.Printf("graph  %s (n=%d, m=%d), levels %v\n", g.Name(), g.N(), g.M(), caps)
	cum := 0
	for i, c := range caps {
		cum += c
		fmt.Printf("boundary %d (cumulative M=%d): floor %10.2f ≤ simulated %d\n",
			i, cum, floors[i], sim.Transfers[i])
	}
	return nil
}

// cmdExpansion reports edge-expansion quantities: λ2, the Cheeger
// interval, the Fiedler sweep cut, and (for tiny graphs) the exact h(G).
func cmdExpansion(args []string) (err error) {
	fs := flag.NewFlagSet("expansion", flag.ExitOnError)
	load := graphFlags(fs)
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
	l2, err := expansion.Lambda2(ofl.Context(), g)
	if err != nil {
		return err
	}
	lo, hi := expansion.CheegerInterval(l2, g.MaxDeg())
	fmt.Printf("graph       %s (n=%d, m=%d, max degree %d)\n", g.Name(), g.N(), g.M(), g.MaxDeg())
	fmt.Printf("lambda2     %.6f\n", l2)
	fmt.Printf("cheeger     %.6f ≤ h(G) ≤ %.6f\n", lo, hi)
	if sweep, err := expansion.SweepCut(g); err == nil {
		fmt.Printf("sweep cut   %.6f (a concrete cut's expansion)\n", sweep)
	}
	if g.N() <= 22 {
		h, err := expansion.Exact(g)
		if err != nil {
			return err
		}
		fmt.Printf("exact h(G)  %.6f\n", h)
	}
	return nil
}
