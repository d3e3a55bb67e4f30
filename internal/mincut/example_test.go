package mincut_test

import (
	"context"
	"fmt"

	"graphio/internal/gen"
	"graphio/internal/mincut"
)

// ExampleConvexMinCutBoundContext runs the baseline on a 16-point FFT with two
// fast-memory slots: the best vertex's convex cut certifies unavoidable
// traffic around the butterfly's waist.
func ExampleConvexMinCutBoundContext() {
	g := gen.FFT(4)
	res, err := mincut.ConvexMinCutBoundContext(context.Background(), g, mincut.Options{M: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("J* ≥ %.0f (C(v*)=%d)\n", res.Bound, res.BestCut)
	// Output:
	// J* ≥ 4 (C(v*)=4)
}

// ExampleConvexCutContext inspects one vertex: right after the first product of
// an inner product fires, only that product needs to be live (its inputs
// are dead and the second half is untouched).
func ExampleConvexCutContext() {
	g := gen.InnerProduct(2)
	cut, err := mincut.ConvexCutContext(context.Background(), g, 4) // the first product vertex
	if err != nil {
		panic(err)
	}
	fmt.Println(cut)
	// Output:
	// 1
}
