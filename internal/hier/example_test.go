package hier_test

import (
	"context"
	"fmt"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/hier"
)

// ExampleBounds computes simultaneous Theorem 4 floors for a two-level
// hierarchy over a 64-point FFT: boundary 0 below the 4 fastest slots,
// boundary 1 below the cumulative 4+12.
func ExampleBounds() {
	g := gen.FFT(6)
	floors, err := hier.Bounds(context.Background(), g, []int{4, 12}, core.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("boundary floors: %.2f %.2f\n", floors[0], floors[1])
	// Output:
	// boundary floors: 0.00 0.00
}

// ExampleSimulate runs a Kahn schedule of the same FFT through the
// cascading Belady hierarchy and reports the per-boundary traffic.
func ExampleSimulate() {
	g := gen.FFT(6)
	res, err := hier.Simulate(g, g.TopoOrder(), []int{4, 12})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Transfers[0] >= res.Transfers[1], res.Total() > 0)
	// Output:
	// true true
}
