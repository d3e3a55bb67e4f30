// TSP example: the Bellman-Held-Karp dynamic program (§5.1). Builds the
// boolean-hypercube computation graph for an l-city traveling salesman
// instance, computes serial and parallel spectral bounds (Theorems 4-6),
// compares them with the §5.1 closed form, and for small instances
// sandwiches J* with a simulated schedule.
//
//	go run ./examples/tsp [-cities 12] [-M 16]
package main

import (
	"context"
	"flag"
	"fmt"

	"graphio/examples/internal/exutil"
	"graphio/internal/analytic"
	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/laplacian"
	"graphio/internal/pebble"
)

func main() {
	cities := flag.Int("cities", 12, "number of cities l (graph has 2^l vertices)")
	M := flag.Int("M", 16, "per-processor fast memory size")
	flag.Parse()

	ctx := context.Background()

	l := *cities
	g := gen.BellmanHeldKarp(l)
	fmt.Printf("Bellman-Held-Karp for %d cities: hypercube with %d vertices, %d edges\n",
		l, g.N(), g.M())
	if g.MaxInDeg() > *M {
		exutil.Fatalf("M=%d cannot hold the %d operands of the final subproblems; raise -M", *M, g.MaxInDeg())
	}

	// Serial bound, both Laplacians.
	t4, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M})
	exutil.Check(err, "Theorem 4 bound for the BHK hypercube")
	t5, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M, Laplacian: laplacian.Original})
	exutil.Check(err, "Theorem 5 bound for the BHK hypercube")
	simple := analytic.HypercubeBoundSimple(l, *M)
	closed, bestK := analytic.HypercubeBoundOptimal(l, *M)
	fmt.Printf("serial bounds at M=%d:\n", *M)
	fmt.Printf("  Theorem 4 (normalized L̃):   %10.2f  (best k=%d)\n", t4.Bound, t4.BestK)
	fmt.Printf("  Theorem 5 (L / max outdeg):  %10.2f\n", t5.Bound)
	fmt.Printf("  §5.1 closed form (optimal α):%10.2f  (k=%d)\n", closed, bestK)
	fmt.Printf("  §5.1 closed form (α=1):     %10.2f  (2^(l+1)/(l+1) − 2M(l+1))\n", simple)

	// Parallel bounds (Theorem 6): some processor incurs at least this.
	fmt.Printf("parallel bounds at M=%d (busiest of p processors):\n", *M)
	for _, p := range []int{2, 4, 8} {
		par, err := core.SpectralBoundContext(ctx, g, core.Options{M: *M, Processors: p})
		exutil.Check(err, fmt.Sprintf("Theorem 6 bound at p=%d", p))
		fmt.Printf("  p=%d: %10.2f\n", p, par.Bound)
	}

	// For small instances, sandwich J* with a simulated schedule.
	if l <= 10 {
		best, _, name, err := pebble.BestOrderContext(ctx, g, *M, pebble.Belady, 30, 1)
		exutil.Check(err, "searching evaluation orders for the sandwich")
		fmt.Printf("simulated upper bound: %d I/Os (order=%s)\n", best.Total(), name)
		fmt.Printf("J* sandwiched: %.2f ≤ J* ≤ %d\n", t4.Bound, best.Total())
	}
}
