// Package hier extends the paper's two-level analysis to multi-level
// memory hierarchies. For levels of capacities M1 < M1+M2 < … backed by
// infinite storage, any execution induces, at each boundary i, a two-level
// execution whose "fast memory" is everything above the boundary; the
// spectral bound therefore applies per boundary with M = Σ_{j ≤ i} Mj,
// giving a vector of simultaneous lower bounds (the standard hierarchy
// argument — Hong-Kung's Corollary 1 pattern — applied to Theorem 4).
//
// The package also simulates executions on such hierarchies: values are
// computed into level 1, evictions cascade downward paying one transfer at
// each boundary they cross (free once a lower copy exists or the value is
// dead), and loads raise the nearest copy back to level 1 paying each
// crossed boundary once. Per-boundary transfer counts from any simulated
// schedule sandwich the per-boundary lower bounds exactly as in the
// two-level case.
package hier

import (
	"context"
	"errors"
	"fmt"
	"math"

	"graphio/internal/core"
	"graphio/internal/graph"
)

// Bounds computes the Theorem 4 lower bound at every hierarchy boundary:
// out[i] bounds the transfers across the boundary below level i+1 (between
// levels i+1 and i+2 in 1-based terms), using cumulative capacity
// M = caps[0]+…+caps[i]. A single eigensolve serves every boundary.
// opt selects the solver, Laplacian, h and processor count.
func Bounds(ctx context.Context, g *graph.Graph, caps []int, opt core.Options) ([]float64, error) {
	if len(caps) == 0 {
		return nil, errors.New("hier: need at least one level capacity")
	}
	for i, c := range caps {
		if c < 1 {
			return nil, fmt.Errorf("hier: capacity of level %d must be ≥ 1", i+1)
		}
	}
	s, err := core.SolveSpectrum(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(caps))
	cum := 0
	for i, c := range caps {
		cum += c
		out[i] = s.At(ctx, cum, opt.Processors).Bound
	}
	return out, nil
}

// Result reports a simulated multi-level execution.
type Result struct {
	// Transfers[i] counts movements across boundary i (between levels
	// i+1 and i+2), in both directions.
	Transfers []int
}

// Total returns the sum of all boundary transfers.
func (r Result) Total() int {
	t := 0
	for _, v := range r.Transfers {
		t += v
	}
	return t
}

// Simulate executes g in the given topological order on a hierarchy with
// the given per-level capacities (level 1 first; the level below the last
// is infinite). Eviction picks the resident value with the farthest next
// use (Belady) at every level. Operands must be in level 1 to compute.
func Simulate(g *graph.Graph, order []int, caps []int) (Result, error) {
	if len(caps) == 0 {
		return Result{}, errors.New("hier: need at least one level capacity")
	}
	for i, c := range caps {
		if c < 1 {
			return Result{}, fmt.Errorf("hier: capacity of level %d must be ≥ 1", i+1)
		}
	}
	if !g.IsTopological(order) {
		return Result{}, errors.New("hier: order is not topological")
	}
	n := g.N()
	L := len(caps) // levels 0..L-1 managed; level L infinite
	res := Result{Transfers: make([]int, L)}

	// Use positions per vertex for Belady decisions.
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	usePos := make([][]int32, n)
	useIdx := make([]int32, n)
	for v := 0; v < n; v++ {
		succ := g.Succ(v)
		uses := make([]int32, len(succ))
		for i, w := range succ {
			uses[i] = pos[w]
		}
		insertionSortI32(uses)
		usePos[v] = uses
	}
	step := int64(0)
	nextUse := func(v int) int64 {
		uses := usePos[v]
		idx := useIdx[v]
		for int(idx) < len(uses) && int64(uses[idx]) < step {
			idx++
		}
		if int(idx) == len(uses) {
			return math.MaxInt64
		}
		return int64(uses[idx])
	}

	// copyAt[v] is a bitmask of levels (0..L) holding a copy of v.
	copyAt := make([]uint32, n)
	resident := make([][]int32, L+1) // resident[l]: values with a copy at level l
	pinned := make([]bool, n)

	removeFrom := func(l int, v int) {
		lst := resident[l]
		for i, x := range lst {
			if int(x) == v {
				lst[i] = lst[len(lst)-1]
				resident[l] = lst[:len(lst)-1]
				copyAt[v] &^= 1 << uint(l)
				return
			}
		}
	}
	addTo := func(l int, v int) {
		if copyAt[v]&(1<<uint(l)) == 0 {
			resident[l] = append(resident[l], int32(v))
			copyAt[v] |= 1 << uint(l)
		}
	}

	// evictFrom frees one slot at level l by pushing its Belady victim
	// down one level (recursively making room), or dropping it free when a
	// lower copy exists or it is dead.
	// evictFrom mirrors the two-level pebble policy per level: dead values
	// drop free immediately; otherwise the Belady victim (farthest next
	// use) is chosen, dropping free when a copy already exists below and
	// paying the boundary crossing otherwise.
	var evictFrom func(l int) error
	evictFrom = func(l int) error {
		best := -1
		var bestUse int64 = -1
		for _, x := range resident[l] {
			v := int(x)
			if pinned[v] {
				continue
			}
			nu := nextUse(v)
			if nu == math.MaxInt64 {
				removeFrom(l, v) // dead: free drop
				return nil
			}
			if nu > bestUse {
				bestUse, best = nu, v
			}
		}
		if best == -1 {
			return fmt.Errorf("hier: level %d exhausted by pinned operands", l+1)
		}
		if copyAt[best]>>uint(l+1) != 0 {
			removeFrom(l, best) // duplicated below: free drop
			return nil
		}
		// Push down one level, paying the boundary crossing.
		res.Transfers[l]++
		removeFrom(l, best)
		if l+1 < L && len(resident[l+1]) >= caps[l+1] {
			if err := evictFrom(l + 1); err != nil {
				return err
			}
		}
		addTo(l+1, best)
		return nil
	}

	// raise brings v to level 1 (index 0) from its fastest copy, paying
	// each crossed boundary; copies below are retained.
	raise := func(v int) error {
		from := -1
		for l := 0; l <= L; l++ {
			if copyAt[v]&(1<<uint(l)) != 0 {
				from = l
				break
			}
		}
		if from == -1 {
			return fmt.Errorf("hier: internal: value %d lost", v)
		}
		if from == 0 {
			return nil
		}
		for b := from - 1; b >= 0; b-- {
			res.Transfers[b]++
		}
		if len(resident[0]) >= caps[0] {
			if err := evictFrom(0); err != nil {
				return err
			}
		}
		addTo(0, v)
		return nil
	}

	for i, v := range order {
		step = int64(i)
		preds := g.Pred(v)
		if len(preds) > caps[0] {
			return Result{}, fmt.Errorf("hier: vertex %d has in-degree %d > level-1 capacity %d",
				v, len(preds), caps[0])
		}
		for _, p := range preds {
			if copyAt[p]&1 != 0 {
				pinned[p] = true
			}
		}
		for _, p := range preds {
			if copyAt[p]&1 == 0 {
				if err := raise(int(p)); err != nil {
					return Result{}, err
				}
				pinned[p] = true
			}
		}
		for _, p := range preds {
			uses := usePos[p]
			for int(useIdx[p]) < len(uses) && int64(uses[useIdx[p]]) <= step {
				useIdx[p]++
			}
			pinned[p] = false
		}
		if len(resident[0]) >= caps[0] {
			if err := evictFrom(0); err != nil {
				return Result{}, err
			}
		}
		addTo(0, v)
	}
	return res, nil
}

func insertionSortI32(x []int32) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
