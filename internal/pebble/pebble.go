// Package pebble simulates evaluations of computation graphs under the
// paper's two-level memory model (§3) and counts the non-trivial I/O they
// incur. It provides empirical *upper* bounds on J*_G, which every lower
// bound in this module (spectral, convex min-cut, closed forms) can be
// sandwich-validated against.
//
// Model recap: fast memory holds M values; evaluating v needs all of v's
// operands in fast memory plus a slot for the result; a value's first
// materialization is free (inputs stream in from the user, computed values
// appear in place); evicting a value that is still needed and has no copy
// in slow memory costs one write; re-loading a previously evicted value
// costs one read; outputs are reported to the user on computation, never
// written; recomputation is disallowed.
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

// Policy selects the eviction policy.
type Policy int

const (
	// LRU evicts the least-recently-touched value.
	LRU Policy = iota
	// Belady evicts the value whose next use is farthest in the future
	// (the clairvoyant policy; optimal for uniform miss costs).
	Belady
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case Belady:
		return "belady"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Result reports the I/O of one simulated evaluation.
type Result struct {
	Reads  int
	Writes int
}

// Total returns reads + writes, the quantity J_G(X) of §3.1.
func (r Result) Total() int { return r.Reads + r.Writes }

const never = math.MaxInt64

// state tracks one simulation run.
type state struct {
	g      *graph.Graph
	order  []int
	m      int
	policy Policy

	usePos  [][]int32 // for each vertex, ascending positions of its uses
	useIdx  []int32   // next unconsumed use index
	slot    []int32   // resident slot of vertex, -1 if not in fast memory
	dirty   []bool    // resident and not backed by a slow-memory copy
	slowCpy []bool    // a copy exists in slow memory
	touched []int64   // last touch step (for LRU)
	present []int32   // resident vertices (unordered)
	pinned  []bool
	step    int64

	res Result
}

// Simulate evaluates g in the given topological order with fast memory M
// and the given eviction policy, returning the non-trivial I/O incurred.
// It fails if order is not a topological order of g or if M is too small
// to hold some vertex's operands (M must be at least the in-degree of
// every vertex; the result slot may reuse a dead operand's slot).
func Simulate(g *graph.Graph, order []int, M int, policy Policy) (Result, error) {
	//lint:ignore ctx-flow the perfbench module calls Simulate and keeps its API; library callers that hold a ctx call SimulateContext
	return SimulateContext(context.Background(), g, order, M, policy)
}

// SimulateContext is Simulate with cancellation: the context is checked
// every few thousand evaluation steps, and a cancelled or expired context
// aborts the simulation with the wrapped ctx error.
func SimulateContext(ctx context.Context, g *graph.Graph, order []int, M int, policy Policy) (Result, error) {
	if M < 1 {
		return Result{}, errors.New("pebble: M must be ≥ 1")
	}
	if !g.IsTopological(order) {
		return Result{}, errors.New("pebble: order is not topological")
	}
	n := g.N()
	s := &state{
		g: g, order: order, m: M, policy: policy,
		usePos:  make([][]int32, n),
		useIdx:  make([]int32, n),
		slot:    make([]int32, n),
		dirty:   make([]bool, n),
		slowCpy: make([]bool, n),
		touched: make([]int64, n),
		pinned:  make([]bool, n),
	}
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	//lint:ignore ctx-loop O(V+E) use-position precompute; the simulation loop below checks ctx every 4096 nodes
	for _, v := range order {
		succ := s.g.Succ(v)
		uses := make([]int32, len(succ))
		for i, w := range succ {
			uses[i] = pos[w]
		}
		insertionSortInt32(uses)
		s.usePos[v] = uses
	}
	for i := range s.slot {
		s.slot[i] = -1
	}

	simDone := obs.TimeHistCtx(ctx, "pebble.simulate_ns")
	for i, v := range order {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				simDone()
				return Result{}, fmt.Errorf("pebble: simulation interrupted: %w", err)
			}
			if obs.EventsEnabled() {
				// Sampled at the existing cancellation boundary so the
				// per-step hot path stays event-free between checkpoints.
				obs.Probe("pebble.simulate").IterCtx(ctx, int64(i),
					obs.FI("reads", int64(s.res.Reads)),
					obs.FI("writes", int64(s.res.Writes)))
			}
		}
		s.step = int64(i)
		if err := s.evaluate(v); err != nil {
			return Result{}, err
		}
	}
	simDone()
	if obs.Enabled() {
		obs.IncCtx(ctx, "pebble.simulations")
		obs.AddCtx(ctx, "pebble.reads", int64(s.res.Reads))
		obs.AddCtx(ctx, "pebble.writes", int64(s.res.Writes))
		// Per-simulation I/O distribution: the order search's spread between
		// lucky and unlucky topological orders at this (graph, M).
		obs.ObserveHistCtx(ctx, "pebble.io_per_sim", int64(s.res.Reads+s.res.Writes))
	}
	return s.res, nil
}

func (s *state) nextUse(v int) int64 {
	uses := s.usePos[v]
	idx := s.useIdx[v]
	// Skip stale entries strictly before the current step; a use *at* the
	// current step stays visible until evaluate() consumes it explicitly.
	for int(idx) < len(uses) && int64(uses[idx]) < s.step {
		idx++
	}
	if int(idx) == len(uses) {
		return never
	}
	return int64(uses[idx])
}

// evict removes one unpinned resident value chosen by the policy, paying a
// write if it is dirty and still needed. Returns an error when everything
// is pinned.
func (s *state) evict() error {
	bestIdx := -1
	var bestKey int64
	// Pass 1: a dead value (no future use) is free to drop — always prefer.
	for i, v := range s.present {
		if s.pinned[v] {
			continue
		}
		nu := s.nextUse(int(v))
		if nu == never {
			s.drop(i)
			return nil
		}
		var key int64
		switch s.policy {
		case Belady:
			key = nu // farthest next use
		default:
			key = -s.touched[v] // least recently used
		}
		if bestIdx == -1 || key > bestKey {
			bestIdx, bestKey = i, key
		}
	}
	if bestIdx == -1 {
		return fmt.Errorf("pebble: fast memory of %d exhausted by pinned operands", s.m)
	}
	v := s.present[bestIdx]
	if s.dirty[v] && !s.slowCpy[v] {
		s.res.Writes++
		s.slowCpy[v] = true
	}
	s.drop(bestIdx)
	return nil
}

// drop removes present[i] from fast memory without any I/O accounting.
func (s *state) drop(i int) {
	v := s.present[i]
	s.slot[v] = -1
	s.dirty[v] = false
	last := len(s.present) - 1
	s.present[i] = s.present[last]
	if s.present[i] != v {
		// fix the moved vertex's slot index
		s.slot[s.present[i]] = int32(i)
	}
	s.present = s.present[:last]
}

// insert places v into fast memory, evicting as needed.
func (s *state) insert(v int, freshlyComputed bool) error {
	for len(s.present) >= s.m {
		if err := s.evict(); err != nil {
			return err
		}
	}
	s.slot[v] = int32(len(s.present))
	s.present = append(s.present, int32(v))
	s.dirty[v] = freshlyComputed
	s.touched[v] = s.step
	return nil
}

func (s *state) evaluate(v int) error {
	preds := s.g.Pred(v)
	if len(preds) > s.m {
		return fmt.Errorf("pebble: vertex %d has in-degree %d > M=%d", v, len(preds), s.m)
	}
	// Pin the operands already resident before loading the missing ones,
	// so the loads can never evict a sibling operand.
	for _, pi := range preds {
		if s.slot[pi] >= 0 {
			s.pinned[pi] = true
			s.touched[pi] = s.step
		}
	}
	for _, pi := range preds {
		p := int(pi)
		if s.slot[p] < 0 {
			if !s.slowCpy[p] {
				return fmt.Errorf("pebble: internal: operand %d evicted without slow copy", p)
			}
			s.res.Reads++
			if err := s.insert(p, false); err != nil {
				return err
			}
			s.pinned[p] = true
			s.touched[p] = s.step
		}
	}
	// Consume this use: advance each operand's use pointer past this step.
	for _, pi := range preds {
		p := int(pi)
		uses := s.usePos[p]
		for int(s.useIdx[p]) < len(uses) && int64(uses[s.useIdx[p]]) <= s.step {
			s.useIdx[p]++
		}
		s.pinned[p] = false
	}
	// The result takes a slot; consumed dead operands may be evicted free.
	return s.insert(v, true)
}

func insertionSortInt32(x []int32) {
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

// SimulateNatural runs Simulate with the graph's deterministic topological
// order.
func SimulateNatural(g *graph.Graph, M int, policy Policy) (Result, error) {
	return Simulate(g, g.TopoOrder(), M, policy)
}

// BestOrderContext searches for a low-I/O evaluation order: the
// deterministic Kahn order, the DFS order, and `samples` random topological
// orders, all simulated under the given policy. It returns the best result,
// the order achieving it, and a short label describing which heuristic won.
// Cancellation is checked between candidate simulations and threaded into
// each one.
func BestOrderContext(ctx context.Context, g *graph.Graph, M int, policy Policy, samples int, seed int64) (Result, []int, string, error) {
	sp := obs.StartSpanCtx(ctx, "pebble.best_order")
	sp.SetInt("n", int64(g.N()))
	sp.SetInt("M", int64(M))
	sp.SetStr("policy", policy.String())
	type candidate struct {
		name  string
		order []int
	}
	cands := []candidate{
		{"kahn", g.TopoOrder()},
		{"dfs", g.DFSTopoOrder()},
		{"frontier", FrontierOrder(g)},
	}
	if aff, err := AffinityOrder(g, 4*M); err == nil {
		cands = append(cands, candidate{"affinity", aff})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, nil, "", err
		}
		cands = append(cands, candidate{fmt.Sprintf("random-%d", i), g.RandomTopoOrder(rng)})
	}
	best := Result{Reads: math.MaxInt32, Writes: math.MaxInt32}
	var bestOrder []int
	bestName := ""
	var firstErr error
	for ci, c := range cands {
		if err := ctx.Err(); err != nil {
			sp.End()
			return Result{}, nil, "", fmt.Errorf("pebble: order search interrupted: %w", err)
		}
		res, err := SimulateContext(ctx, g, c.order, M, policy)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if res.Total() < best.Total() {
			best, bestOrder, bestName = res, c.order, c.name
		}
		if obs.EventsEnabled() {
			obs.Probe("pebble.best_order").IterCtx(ctx, int64(ci),
				obs.FI("reads", int64(res.Reads)),
				obs.FI("writes", int64(res.Writes)),
				obs.FI("io", int64(res.Total())),
				obs.FI("best_io", int64(best.Total())))
		}
	}
	if bestOrder == nil {
		sp.End()
		return Result{}, nil, "", fmt.Errorf("pebble: no feasible order: %w", firstErr)
	}
	sp.SetInt("candidates", int64(len(cands)))
	sp.SetStr("winner", bestName)
	sp.SetInt("io", int64(best.Total()))
	sp.End()
	return best, bestOrder, bestName, nil
}

// ExhaustiveBestContext enumerates every topological order of a small
// graph (up to maxOrders linear extensions; it fails beyond that) and
// returns the minimum-I/O result under the given policy. Because the policy
// is applied greedily this is an upper bound on J*_G — but a very tight one
// on tiny graphs, which is what the validation tests need. Cancellation is
// checked once per completed linear extension and threaded into each
// simulation.
func ExhaustiveBestContext(ctx context.Context, g *graph.Graph, M int, policy Policy, maxOrders int) (Result, []int, error) {
	if maxOrders <= 0 {
		maxOrders = 100000
	}
	n := g.N()
	indeg := make([]int, n)
	//lint:ignore ctx-loop O(V) in-degree snapshot before the search; rec checks ctx at every completed order
	for v := 0; v < n; v++ {
		indeg[v] = g.InDeg(v)
	}
	order := make([]int, 0, n)
	best := Result{Reads: math.MaxInt32, Writes: math.MaxInt32}
	var bestOrder []int
	count := 0
	var overflow bool
	var rec func() error
	rec = func() error {
		if overflow {
			return nil
		}
		if len(order) == n {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("pebble: exhaustive search interrupted: %w", err)
			}
			count++
			if count > maxOrders {
				overflow = true
				return nil
			}
			res, err := SimulateContext(ctx, g, order, M, policy)
			if err != nil {
				return err
			}
			if res.Total() < best.Total() {
				best = res
				bestOrder = append(bestOrder[:0], order...)
			}
			return nil
		}
		//lint:ignore ctx-loop rec closes over ctx and checks it at every completed order
		for v := 0; v < n; v++ {
			if indeg[v] != 0 || isIn(order, v) {
				continue
			}
			order = append(order, v)
			for _, w := range g.Succ(v) {
				indeg[w]--
			}
			if err := rec(); err != nil {
				return err
			}
			for _, w := range g.Succ(v) {
				indeg[w]++
			}
			order = order[:len(order)-1]
		}
		return nil
	}
	if err := rec(); err != nil {
		return Result{}, nil, err
	}
	if overflow {
		return Result{}, nil, fmt.Errorf("pebble: more than %d topological orders", maxOrders)
	}
	if bestOrder == nil {
		return Result{}, nil, errors.New("pebble: no feasible order")
	}
	return best, bestOrder, nil
}

func isIn(order []int, v int) bool {
	for _, o := range order {
		if o == v {
			return true
		}
	}
	return false
}
