package core_test

import (
	"context"
	"fmt"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/laplacian"
)

// ExampleSpectralBoundContext bounds the I/O of a 10-city Bellman-Held-Karp
// dynamic program on a machine with 16 fast-memory slots.
func ExampleSpectralBoundContext() {
	g := gen.BellmanHeldKarp(10)
	res, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("J* ≥ %.2f (best k = %d)\n", res.Bound, res.BestK)
	// Output:
	// J* ≥ 146.91 (best k = 4)
}

// ExampleBoundFromEigenvalues evaluates the Theorem 5 bound from a closed-
// form spectrum, without any eigensolver: the 8-dimensional hypercube has
// eigenvalue 2i with multiplicity C(8,i) and maximum out-degree 8.
func ExampleBoundFromEigenvalues() {
	lambda := []float64{0, 2, 2, 2, 2, 2, 2, 2, 2} // 0, then 2×C(8,1)
	bound, bestK, _ := core.BoundFromEigenvalues(lambda, 256, 1, 1, 8)
	fmt.Printf("bound %.2f at k=%d\n", bound, bestK)
	// Output:
	// bound 41.00 at k=5
}

// ExamplePartitionBound certifies the Lemma 1 I/O of a concrete schedule:
// the deterministic Kahn order of an 8-point FFT split into 4 segments.
func ExamplePartitionBound() {
	g := gen.FFT(3)
	pb, err := core.PartitionBound(g, g.TopoOrder(), 4, 2, laplacian.OutDegreeNormalized)
	if err != nil {
		panic(err)
	}
	fmt.Printf("this schedule incurs ≥ %.1f I/Os\n", pb)
	// Output:
	// this schedule incurs ≥ 32.0 I/Os
}
