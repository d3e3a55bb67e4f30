// Quickstart: trace a small computation, extract its graph, and compute
// the paper's spectral I/O lower bound plus a simulated upper bound.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"graphio/examples/internal/exutil"
	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/pebble"
	"graphio/internal/trace"
)

func main() {
	ctx := context.Background()

	// The inner product of two 4-vectors, recorded through the tracer the
	// same way the paper's solver traces Python arithmetic (Figure 1 shows
	// the 2-element version of this graph).
	tr := trace.New()
	x := tr.Inputs("x", 4)
	y := tr.Inputs("y", 4)
	prods := make([]trace.Value, 4)
	for i := range prods {
		prods[i] = x[i].Mul(y[i])
	}
	trace.ReduceAdd(prods)
	g := tr.MustGraph("inner-product-4")

	fmt.Printf("computation graph: %d operations, %d dependencies\n", g.N(), g.M())

	// Spectral lower bound (Theorem 4) for a fast memory of M = 2 values.
	const M = 2
	res, err := core.SpectralBoundContext(ctx, g, core.Options{M: M})
	exutil.Check(err, "spectral bound for the traced inner product")
	fmt.Printf("spectral lower bound at M=%d: %.2f I/Os (best k = %d)\n", M, res.Bound, res.BestK)

	// Upper bound: simulate real evaluation orders under the same memory
	// model and keep the best.
	best, _, name, err := pebble.BestOrderContext(ctx, g, M, pebble.Belady, 50, 1)
	exutil.Check(err, "simulated upper bound for the traced inner product")
	fmt.Printf("best simulated schedule at M=%d: %d I/Os (reads=%d, writes=%d, order=%s)\n",
		M, best.Total(), best.Reads, best.Writes, name)
	fmt.Printf("J* is sandwiched: %.2f ≤ J* ≤ %d\n", res.Bound, best.Total())
	fmt.Println("(tree-like graphs have tiny spectral gaps, so the lower bound is often trivial there)")

	// A graph where the spectral method shines: the 256-point FFT
	// butterfly, whose connectivity forces real data movement.
	fft := gen.FFT(8)
	fres, err := core.SpectralBoundContext(ctx, fft, core.Options{M: 4})
	exutil.Check(err, "spectral bound for the 256-point FFT")
	fbest, _, _, err := pebble.BestOrderContext(ctx, fft, 4, pebble.Belady, 10, 1)
	exutil.Check(err, "simulated upper bound for the 256-point FFT")
	fmt.Printf("\n256-point FFT (%d vertices) at M=4: %.2f ≤ J* ≤ %d\n",
		fft.N(), fres.Bound, fbest.Total())
}
