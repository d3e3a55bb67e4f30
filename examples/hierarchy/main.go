// Hierarchy example: the multi-level extension of the paper's two-level
// bound. Pick a three-level hierarchy (think registers / L1 / L2 over
// DRAM): the Theorem 4 bound applies at every level boundary with the
// cumulative capacity above it, and the multi-level simulator shows how
// much traffic a real schedule pushes across each boundary.
//
//	go run ./examples/hierarchy [-graph-level 9]
package main

import (
	"context"
	"flag"
	"fmt"

	"graphio/examples/internal/exutil"
	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/hier"
	"graphio/internal/pebble"
)

func main() {
	level := flag.Int("graph-level", 9, "FFT level l (graph has (l+1)·2^l vertices)")
	flag.Parse()

	g := gen.FFT(*level)
	caps := []int{4, 16, 64}
	fmt.Printf("%s: %d vertices on a %d/%d/%d hierarchy (infinite memory below)\n",
		g.Name(), g.N(), caps[0], caps[1], caps[2])

	floors, err := hier.Bounds(context.Background(), g, caps, core.Options{})
	exutil.Check(err, "per-boundary Theorem 4 floors")

	for _, o := range []struct {
		name  string
		order []int
	}{
		{"kahn", g.TopoOrder()},
		{"frontier", pebble.FrontierOrder(g)},
	} {
		res, err := hier.Simulate(g, o.order, caps)
		exutil.Check(err, fmt.Sprintf("simulating the %s order on the hierarchy", o.name))
		fmt.Printf("\n%s order:\n", o.name)
		cum := 0
		for i, c := range caps {
			cum += c
			fmt.Printf("  boundary %d (below %2d fast slots): floor %8.1f ≤ traffic %8d\n",
				i, cum, floors[i], res.Transfers[i])
		}
	}
	fmt.Println("\neach boundary obeys its own Theorem 4 floor: everything above the")
	fmt.Println("boundary is one fast memory of the cumulative capacity.")
}
