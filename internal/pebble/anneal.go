package pebble

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"graphio/internal/graph"
	"graphio/internal/obs"
)

// AnnealOptions tunes the local-search schedule optimizer.
type AnnealOptions struct {
	// Iters is the number of proposed moves. Default 2000.
	Iters int
	// InitialTemp scales the acceptance of uphill moves, in I/O units.
	// Default 2.0; temperature decays geometrically to ~0.01 over the run.
	InitialTemp float64
	// Seed drives the proposal sequence. Default 1.
	Seed int64
	// Policy is the eviction policy simulated for every candidate
	// (the zero value is LRU).
	Policy Policy
}

// AnnealContext improves an evaluation order by simulated annealing over
// adjacent transpositions: a random position i is proposed for swapping
// with i+1, which preserves topological validity exactly when order[i] is
// not an operand of order[i+1]. Every candidate is re-simulated, so the
// search is only practical on small and medium graphs; it exists to
// tighten the upper bounds that sandwich the lower-bound methods. Returns
// the best order found and its I/O. Cancellation is checked once per
// proposed move.
func AnnealContext(ctx context.Context, g *graph.Graph, start []int, M int, opt AnnealOptions) ([]int, Result, error) {
	if !g.IsTopological(start) {
		return nil, Result{}, errors.New("pebble: AnnealContext start order is not topological")
	}
	iters := opt.Iters
	if iters <= 0 {
		iters = 2000
	}
	temp := opt.InitialTemp
	if temp <= 0 {
		temp = 2.0
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	cur := make([]int, len(start))
	copy(cur, start)
	curRes, err := SimulateContext(ctx, g, cur, M, opt.Policy)
	if err != nil {
		return nil, Result{}, err
	}
	best := make([]int, len(cur))
	copy(best, cur)
	bestRes := curRes

	n := len(cur)
	if n < 2 {
		return best, bestRes, nil
	}
	decay := math.Pow(0.01/temp, 1/float64(iters))
	isParent := func(u, v int) bool {
		//lint:ignore ctx-loop O(in-degree) parent test invoked from the annealing loop, which checks ctx every iteration
		for _, p := range g.Pred(v) {
			if int(p) == u {
				return true
			}
		}
		return false
	}
	proposed, accepted := 0, 0
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, Result{}, fmt.Errorf("pebble: annealing interrupted: %w", err)
		}
		i := rng.Intn(n - 1)
		if isParent(cur[i], cur[i+1]) {
			temp *= decay
			continue // swap would violate the dependency
		}
		proposed++
		cur[i], cur[i+1] = cur[i+1], cur[i]
		res, err := SimulateContext(ctx, g, cur, M, opt.Policy)
		if err != nil {
			return nil, Result{}, err
		}
		delta := float64(res.Total() - curRes.Total())
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			accepted++
			curRes = res
			if res.Total() < bestRes.Total() {
				bestRes = res
				copy(best, cur)
			}
		} else {
			cur[i], cur[i+1] = cur[i+1], cur[i] // reject: undo
		}
		temp *= decay
	}
	if obs.Enabled() {
		obs.AddCtx(ctx, "pebble.anneal.proposed", int64(proposed))
		obs.AddCtx(ctx, "pebble.anneal.accepted", int64(accepted))
	}
	return best, bestRes, nil
}
