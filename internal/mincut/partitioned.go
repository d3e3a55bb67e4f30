package mincut

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"graphio/internal/graph"
	"graphio/internal/obs"
)

// PartitionedBound computes the partitioned convex min-cut variant the
// baseline's original authors suggested for scalability: partition V, run
// the per-vertex convex cut inside each induced subgraph, and sum
//
//	J*_G ≥ Σ_P max_{v ∈ P} max(0, 2·(C(v, G_P) − M)).
//
// The paper found this variant trivial (zero) on complex computation
// graphs because the suggested 2M-vertex parts are too small; it is
// provided for completeness and for the ablation in the experiment
// harness. parts must cover disjoint vertex sets (e.g. from
// partition.RecursiveBisection). Each worker checks ctx before its next
// part; a cancelled or expired context returns its error, since a sum
// over some of the parts is not the partitioned bound.
func PartitionedBound(ctx context.Context, g *graph.Graph, parts [][]int, M int) (*Result, error) {
	if M < 1 {
		return nil, errors.New("mincut: M must be ≥ 1")
	}
	start := obs.Now()
	res := &Result{BestVertex: -1}
	// Parts are independent subproblems: fan them out to a worker pool.
	subResults := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers < 1 {
		workers = 1
	}
	var next int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= len(parts) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("mincut: partitioned bound: %w", err)
					return
				}
				sub, err := g.InducedSubgraph(parts[i])
				if err != nil {
					errs[i] = err
					continue
				}
				subRes, err := ConvexMinCutBoundContext(ctx, sub, Options{M: M, Workers: 1})
				if err == nil && subRes.Interrupted {
					err = fmt.Errorf("mincut: partitioned bound: %w", ctx.Err())
				}
				subResults[i], errs[i] = subRes, err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		subRes := subResults[i]
		res.Evaluated += subRes.Evaluated
		res.Bound += subRes.Bound
		if subRes.BestCut > res.BestCut {
			res.BestCut = subRes.BestCut
			if subRes.BestVertex >= 0 {
				res.BestVertex = parts[i][subRes.BestVertex]
			}
		}
	}
	res.Elapsed = obs.Since(start)
	return res, nil
}
