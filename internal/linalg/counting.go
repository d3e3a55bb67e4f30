package linalg

import (
	"context"
	"sync/atomic"
	"time"

	"graphio/internal/obs"
)

// CountingOperator wraps an Operator, counts MatVec applications, and
// feeds each application's latency into the "linalg.matvec_ns" histogram.
// It forwards the Chebyshev solver's block products too, counting b column
// products per n×b block and recording the block's latency split evenly
// over its columns, so a solve takes the same path with telemetry on as
// off. The increment is atomic because the MatVec adapter applies the
// operator from several worker goroutines; one atomic add plus two clock
// reads are negligible next to the O(nnz) mat-vec they measure. The
// spectral-bound core wraps solver inputs with it only when observability
// is enabled, so the count covers pilot runs, filter applications and
// residual checks alike and the latency distribution separates the
// Lanczos single-vector products from the Chebyshev block products.
type CountingOperator struct {
	A Operator
	// Scope attributes the latency histogram to a telemetry scope; the
	// operator cannot take a context (MatVec is the hot interface), so the
	// wrapper resolves the scope once at construction. Nil routes to the
	// default registry unchanged.
	Scope *obs.Scope
	n     atomic.Int64
}

// Dim implements Operator.
func (c *CountingOperator) Dim() int { return c.A.Dim() }

// MatVec implements Operator, counting and timing the application.
func (c *CountingOperator) MatVec(dst, src []float64) {
	c.n.Add(1)
	start := obs.Now()
	c.A.MatVec(dst, src)
	c.Scope.ObserveHistDuration("linalg.matvec_ns", obs.Since(start))
}

// mulBlock implements blockOperator: one pass over the wrapped operator
// when it has a block product, column by column through its MatVec
// otherwise. The recorded latency includes the fused finish.
func (c *CountingOperator) mulBlock(ctx context.Context, t *team, dst, src []float64, b int, finish finishFunc) {
	c.n.Add(int64(b))
	start := obs.Now()
	t.mulBlock(ctx, c.A, dst, src, b, finish)
	per := obs.Since(start) / time.Duration(b)
	//lint:ignore ctx-loop records b histogram samples; there is no work left to cancel
	for j := 0; j < b; j++ {
		c.Scope.ObserveHistDuration("linalg.matvec_ns", per)
	}
}

// Count returns the number of MatVec applications so far.
func (c *CountingOperator) Count() int64 { return c.n.Load() }
