package expansion_test

import (
	"context"
	"fmt"

	"graphio/internal/expansion"
	"graphio/internal/gen"
)

// Example brackets the edge expansion of the 4-cube: Cheeger's inequality
// from λ2 = 2, an exact enumeration, and a concrete sweep cut.
func Example() {
	g := gen.BellmanHeldKarp(4)
	l2, err := expansion.Lambda2(context.Background(), g)
	if err != nil {
		panic(err)
	}
	lo, _ := expansion.CheegerInterval(l2, g.MaxDeg())
	h, err := expansion.Exact(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lambda2=%.1f cheeger_lo=%.1f exact_h=%.1f\n", l2, lo, h)
	// Output:
	// lambda2=2.0 cheeger_lo=1.0 exact_h=1.0
}
