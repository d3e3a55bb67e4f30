// Package redblue solves the red-blue pebble game exactly on small graphs:
// the true optimal non-trivial I/O J*_G under the paper's §3 memory model
// (no recomputation, M fast slots, outputs reported on computation). The
// paper dismisses exact approaches as intractable in general — the 2S
// partition needs an ILP — and this solver is indeed exponential; its role
// here is ground truth: on graphs of a dozen vertices it pins J* exactly,
// so every lower bound can be validated against the real optimum rather
// than a heuristic schedule's cost, and every simulated schedule can be
// measured for how far from optimal it is.
//
// The search is uniform-cost (Dijkstra) over states
// (computed, fast, written): which values have been computed, which sit in
// fast memory, and which have copies in slow memory. Moves:
//
//   - compute v: operands in fast, a free fast slot (or one freed by
//     dropping); cost 0 (computation is free, only I/O counts);
//   - write u:  u in fast, no slow copy yet; cost 1;
//   - read u:   slow copy exists, u not in fast, free slot; cost 1;
//   - drop u:   u in fast and either written or dead; cost 0 (dropping an
//     unwritten value that is still needed would lose it forever — the
//     model forbids recomputation).
package redblue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"graphio/internal/graph"
	"graphio/internal/obs"
)

// Result reports the exact optimum.
type Result struct {
	// IO is J*_G: the minimum total reads+writes over all executions.
	IO int
	// States is the number of distinct states expanded by the search.
	States int
}

type state struct {
	computed uint32
	fast     uint32
	written  uint32
}

type item struct {
	st   state
	cost int32
	idx  int
}

type pq []*item

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *pq) Push(x interface{}) { it := x.(*item); it.idx = len(*q); *q = append(*q, it) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Options bounds the exact search.
type Options struct {
	// MaxStates aborts the search beyond this many distinct states.
	// Default 5 million (~hundreds of MB at the default n ≤ 20 packing).
	MaxStates int
	// CountTrivial switches to the classic Hong-Kung accounting: inputs
	// start in slow memory (each use of an input begins with a paid read)
	// and every output must end written to slow memory (one paid write
	// per sink). The default — the paper's §3 convention — makes both
	// free. Trivial-I/O results are comparable to Hong-Kung-style bounds;
	// non-trivial results to the spectral and min-cut bounds.
	CountTrivial bool
}

// OptimalContext computes the exact minimum I/O for evaluating g with fast
// memory M. Graphs are limited to 20 vertices (the state packs three
// bitmasks). The context is checked every few thousand expanded states,
// and a cancelled or expired context aborts the search with the wrapped
// ctx error (the exact search has no meaningful partial result — a prefix
// of a Dijkstra run certifies nothing).
func OptimalContext(ctx context.Context, g *graph.Graph, M int, opt Options) (*Result, error) {
	n := g.N()
	if n > 20 {
		return nil, fmt.Errorf("redblue: exact solver limited to 20 vertices, graph has %d", n)
	}
	if M < 1 {
		return nil, errors.New("redblue: M must be ≥ 1")
	}
	if n == 0 {
		return &Result{}, nil
	}
	if g.MaxInDeg() > M {
		return nil, fmt.Errorf("redblue: max in-degree %d exceeds M=%d", g.MaxInDeg(), M)
	}
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		maxStates = 5_000_000
	}

	all := uint32(1)<<n - 1
	preds := make([]uint32, n)
	succs := make([]uint32, n)
	//lint:ignore ctx-loop n ≤ 32 bitmask precompute; the state search below checks ctx per expansion
	for v := 0; v < n; v++ {
		for _, p := range g.Pred(v) {
			preds[v] |= 1 << uint(p)
		}
		for _, s := range g.Succ(v) {
			succs[v] |= 1 << uint(s)
		}
	}

	popcount := func(x uint32) int {
		c := 0
		for x != 0 {
			x &= x - 1
			c++
		}
		return c
	}

	// Trivial accounting: inputs begin computed-and-written (blue), so
	// their first appearance in fast memory is a paid read; each sink
	// costs one final write, added as a constant at the end (the write can
	// always happen right after computation with no interaction with the
	// rest of the schedule).
	start := state{}
	sinkCost := 0
	if opt.CountTrivial {
		for v := 0; v < n; v++ {
			if preds[v] == 0 {
				bit := uint32(1) << uint(v)
				start.computed |= bit
				start.written |= bit
			}
			if succs[v] == 0 {
				sinkCost++
			}
		}
	}

	dist := make(map[state]int32, 1<<12)
	dist[start] = 0
	q := &pq{}
	heap.Push(q, &item{st: start, cost: 0})

	// State-space telemetry for the exact search, reported however the
	// search ends (optimum found, state cap exceeded, or exhausted).
	sp := obs.StartSpanCtx(ctx, "redblue.search")
	sp.SetInt("n", int64(n))
	sp.SetInt("M", int64(M))
	defer func() {
		if obs.Enabled() {
			obs.AddCtx(ctx, "redblue.states", int64(len(dist)))
			obs.IncCtx(ctx, "redblue.searches")
			// Distribution of state-space sizes across searches: the exact
			// solver's expansion rate per (graph, M) instance.
			obs.ObserveHistCtx(ctx, "redblue.states_per_search", int64(len(dist)))
		}
		sp.SetInt("states", int64(len(dist)))
		sp.End()
	}()

	pops := 0
	for q.Len() > 0 {
		if pops%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("redblue: search interrupted: %w", err)
			}
		}
		pops++
		cur := heap.Pop(q).(*item)
		st, cost := cur.st, cur.cost
		if d, ok := dist[st]; ok && d < cost {
			continue // stale entry
		}
		if st.computed == all {
			return &Result{IO: int(cost) + sinkCost, States: len(dist)}, nil
		}
		if len(dist) > maxStates {
			return nil, fmt.Errorf("redblue: state space exceeded %d states", maxStates)
		}

		relax := func(ns state, nc int32) {
			if d, ok := dist[ns]; !ok || nc < d {
				dist[ns] = nc
				heap.Push(q, &item{st: ns, cost: nc})
			}
		}

		fastCount := popcount(st.fast)
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			inFast := st.fast&bit != 0
			isComputed := st.computed&bit != 0
			// dead: computed and no uncomputed consumer remains
			dead := isComputed && succs[v]&^st.computed == 0

			switch {
			case !isComputed:
				if st.fast&preds[v] == preds[v] {
					if fastCount < M {
						// compute v into a free slot.
						relax(state{st.computed | bit, st.fast | bit, st.written}, cost)
					} else {
						// Memory full: the result may overwrite a resident
						// value that is written or dead *after* this
						// computation — including an operand whose last
						// consumer is v itself (this is what makes
						// in-degree == M feasible).
						newComputed := st.computed | bit
						for u := 0; u < n; u++ {
							ubit := uint32(1) << uint(u)
							if st.fast&ubit == 0 {
								continue
							}
							if st.written&ubit != 0 || succs[u]&^newComputed == 0 {
								relax(state{newComputed, st.fast&^ubit | bit, st.written}, cost)
							}
						}
					}
				}
			case inFast:
				// write v (once).
				if st.written&bit == 0 && !dead {
					relax(state{st.computed, st.fast, st.written | bit}, cost+1)
				}
				// drop v: free only when written or dead.
				if st.written&bit != 0 || dead {
					relax(state{st.computed, st.fast &^ bit, st.written}, cost)
				}
			default:
				// read v back from its slow copy.
				if st.written&bit != 0 && fastCount < M && !dead {
					relax(state{st.computed, st.fast | bit, st.written}, cost+1)
				}
			}
		}
	}
	return nil, errors.New("redblue: search exhausted without completing the computation")
}
