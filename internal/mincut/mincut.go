// Package mincut implements the convex min-cut lower bound of Elango,
// Rastello, Pouchet, Ramanujam and Sadayappan (the paper's automated
// baseline, [13] in §6.3):
//
//	J*_G ≥ max_v max(0, 2·(C(v, G) − M))
//
// where C(v, G) is the minimum, over every evaluation prefix possible at
// the moment v is computed — a down-set S with Anc(v) ∪ {v} ⊆ S and
// S ∩ Desc(v) = ∅ — of the frontier size |W_S| = |{u ∈ S : ∃(u,w) ∈ E,
// w ∉ S}|. Every frontier value beyond the M that fit in fast memory must
// be written out and later read back, hence the 2·(C − M).
//
// C(v, G) is computed as a minimum vertex s-t cut on a split-node flow
// network (Dinic's algorithm, package maxflow): each vertex u becomes
// u_in→u_out with capacity 1; each DAG edge (x, y) becomes x_out→y_in with
// infinite capacity (a frontier vertex must be cut before the set can end)
// plus the reverse closure arc y_in→x_in (membership of y forces its
// operand x — this is what keeps S a *down-set*, i.e. an actually
// realizable evaluation prefix); v is wired to the source (its ancestors
// follow by closure) and every descendant of v to the sink. The whole-graph
// variant below is the one the paper plots; the partitioned variant the
// original authors suggested is in partitioned.go. Worst-case cost is the
// paper's O(n^5).
package mincut

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/graph"
	"graphio/internal/maxflow"
	"graphio/internal/obs"
)

// Options configures ConvexMinCutBoundContext.
type Options struct {
	// M is the fast-memory size. Required, ≥ 1.
	M int
	// Timeout, when positive, stops the per-vertex sweep once exceeded;
	// the result is then a valid but possibly weaker bound with TimedOut
	// set (the paper time-boxed this baseline at one day).
	Timeout time.Duration
	// MaxVertices, when positive, caps how many vertices are evaluated
	// (in decreasing order of the cheap frontier upper bound, so the most
	// promising vertices go first).
	MaxVertices int
	// Workers sets the number of concurrent max-flow evaluations.
	// Default GOMAXPROCS. The reported bound is deterministic regardless
	// (pruning only ever skips vertices that cannot beat the maximum);
	// Evaluated may vary with scheduling.
	Workers int
}

// Result reports the baseline bound and its diagnostics.
type Result struct {
	// Bound is max over evaluated v of max(0, 2·(C(v,G) − M)).
	Bound float64
	// BestVertex attains the maximum cut (−1 when no vertex was evaluated).
	BestVertex int
	// BestCut is C(BestVertex, G).
	BestCut int64
	// Evaluated counts the vertices for which a max-flow was run.
	Evaluated int
	// TimedOut reports whether the sweep stopped on Options.Timeout.
	TimedOut bool
	// Interrupted reports whether the sweep stopped on context
	// cancellation. Like TimedOut, the bound over the vertices evaluated so
	// far is still valid, just possibly weaker.
	Interrupted bool
	// Elapsed is the total sweep time.
	Elapsed time.Duration
}

// ConvexCutContext computes C(v, G): the minimum frontier over realizable
// evaluation prefixes at the moment v fires. It returns 0 when v has no
// descendants (the prefix can simply be the whole graph). The underlying
// max-flow's telemetry is attributed to ctx's scope.
func ConvexCutContext(ctx context.Context, g *graph.Graph, v int) (int64, error) {
	n := g.N()
	if v < 0 || v >= n {
		return 0, errors.New("mincut: vertex out of range")
	}
	desc := g.Descendants(v)
	hasDesc := false
	for _, d := range desc {
		if d {
			hasDesc = true
			break
		}
	}
	if !hasDesc {
		return 0, nil
	}
	// Split-node network: u_in = 2u, u_out = 2u+1, s = 2n, t = 2n+1.
	net := maxflow.NewNetwork(2*n + 2)
	s, t := 2*n, 2*n+1
	//lint:ignore ctx-loop O(n+m) network construction; ctx exists for telemetry attribution, cancellation is handled by the sweep around each ConvexCutContext
	for u := 0; u < n; u++ {
		if err := net.AddEdge(2*u, 2*u+1, 1); err != nil {
			return 0, err
		}
	}
	//lint:ignore ctx-loop O(n+m) network construction; ctx exists for telemetry attribution, cancellation is handled by the sweep around each ConvexCutContext
	for x := 0; x < n; x++ {
		for _, yi := range g.Succ(x) {
			y := int(yi)
			if err := net.AddEdge(2*x+1, 2*y, maxflow.Inf); err != nil {
				return 0, err
			}
			// Reverse closure: y in S forces its operand x into S.
			if err := net.AddEdge(2*y, 2*x, maxflow.Inf); err != nil {
				return 0, err
			}
		}
	}
	if err := net.AddEdge(s, 2*v, maxflow.Inf); err != nil {
		return 0, err
	}
	//lint:ignore ctx-loop O(n) sink wiring; ctx exists for telemetry attribution, cancellation is handled by the sweep around each ConvexCutContext
	for u, isDesc := range desc {
		if isDesc {
			// Wire the *in* node to the sink: a descendant may neither be
			// in S nor serve as a cut vertex itself (W_S ⊆ S), so its
			// membership node must be unreachable on the source side.
			if err := net.AddEdge(2*u, t, maxflow.Inf); err != nil {
				return 0, err
			}
		}
	}
	return net.MaxFlowContext(ctx, s, t)
}

// frontierUpperBound returns |W_S| for the minimal prefix S = Anc(v) ∪ {v},
// a cheap upper bound on C(v, G) used to order and prune the sweep.
func frontierUpperBound(g *graph.Graph, v int) int64 {
	anc := g.Ancestors(v)
	anc[v] = true
	var w int64
	for u := 0; u < g.N(); u++ {
		if !anc[u] {
			continue
		}
		for _, c := range g.Succ(u) {
			if !anc[c] {
				w++
				break
			}
		}
	}
	return w
}

// ConvexMinCutBoundContext computes the whole-graph convex min-cut lower
// bound, maximizing over vertices. Vertices are visited in decreasing order
// of a cheap frontier upper bound and pruned once that upper bound cannot
// beat the best cut found, so typical runs evaluate far fewer than n flows
// while returning the same maximum. A cancelled or expired context stops
// the sweep like Options.Timeout does, returning the (valid, possibly
// weaker) bound over the vertices evaluated so far with Result.Interrupted
// set rather than an error.
func ConvexMinCutBoundContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if opt.M < 1 {
		return nil, errors.New("mincut: Options.M must be ≥ 1")
	}
	start := obs.Now()
	sp := obs.StartSpanCtx(ctx, "mincut.sweep")
	n := g.N()
	res := &Result{BestVertex: -1}
	if n == 0 {
		sp.End()
		return res, nil
	}

	type cand struct {
		v  int
		ub int64
	}
	cands := make([]cand, 0, n)
	for v := 0; v < n; v++ {
		if g.OutDeg(v) == 0 {
			continue // sinks have no descendants: C = 0
		}
		// The upper-bound pass is itself O(n·(n+m)); honour the time box
		// and the context here too, and rank whatever prefix was scored.
		if v%256 == 0 {
			if opt.Timeout > 0 && obs.Since(start) > opt.Timeout/2 {
				res.TimedOut = true
				break
			}
			if ctx.Err() != nil {
				res.Interrupted = true
				break
			}
		}
		cands = append(cands, cand{v, frontierUpperBound(g, v)})
	}
	// Sort by decreasing upper bound, ties by vertex ID for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ub != cands[j].ub {
			return cands[i].ub > cands[j].ub
		}
		return cands[i].v < cands[j].v
	})

	limit := len(cands)
	if opt.MaxVertices > 0 && opt.MaxVertices < limit {
		limit = opt.MaxVertices
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > limit {
		workers = limit
	}
	if workers < 1 {
		workers = 1
	}

	// Workers pull candidates in UB order and share the running maximum:
	// a candidate whose cheap upper bound cannot beat it is skipped (the
	// skip can never change the maximum, so the Bound stays deterministic;
	// which vertex attains it is tie-broken by smallest ID below).
	var (
		mu       sync.Mutex
		bestCut  int64 = -1
		bestV          = -1
		next     int32
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= limit {
					return
				}
				if opt.Timeout > 0 && obs.Since(start) > opt.Timeout {
					mu.Lock()
					res.TimedOut = true
					mu.Unlock()
					return
				}
				if ctx.Err() != nil {
					mu.Lock()
					res.Interrupted = true
					mu.Unlock()
					return
				}
				c := cands[i]
				mu.Lock()
				done := c.ub <= bestCut || firstErr != nil
				mu.Unlock()
				if done {
					// Candidates are sorted by decreasing upper bound, so
					// nothing after this one can improve the maximum.
					return
				}
				flowDone := obs.TimeHistCtx(ctx, "mincut.flow_ns")
				cut, err := ConvexCutContext(ctx, g, c.v)
				flowDone()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				res.Evaluated++
				if cut > bestCut || (cut == bestCut && (bestV == -1 || c.v < bestV)) {
					bestCut = cut
					bestV = c.v
				}
				bestAfter := bestCut
				mu.Unlock()
				if obs.EventsEnabled() && err == nil {
					// One event per evaluated flow, in candidate (UB) order;
					// emitted concurrently by the worker pool.
					obs.Probe("mincut.sweep").IterCtx(ctx, int64(i),
						obs.FI("vertex", int64(c.v)),
						obs.FI("ub", c.ub),
						obs.FI("cut", cut),
						obs.FI("best", bestAfter))
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.BestCut = bestCut
	res.BestVertex = bestV
	if bestCut < 0 {
		res.BestCut = 0
	}
	if bestCut > 0 {
		if b := 2 * (float64(bestCut) - float64(opt.M)); b > 0 {
			res.Bound = b
		}
	}
	res.Elapsed = obs.Since(start)
	if obs.Enabled() {
		obs.AddCtx(ctx, "mincut.flows", int64(res.Evaluated))
		// Everything the upper-bound ordering let the sweep skip: candidates
		// whose cheap frontier bound could not beat the running maximum.
		obs.AddCtx(ctx, "mincut.pruned", int64(limit-res.Evaluated))
		if res.TimedOut {
			obs.IncCtx(ctx, "mincut.timeouts")
		}
		if res.Interrupted {
			obs.IncCtx(ctx, "mincut.interrupts")
		}
	}
	if res.TimedOut {
		obs.LogCtx(ctx, "mincut: timed out after %v with %d/%d flows evaluated (bound is valid but possibly weaker)",
			res.Elapsed.Round(time.Millisecond), res.Evaluated, limit)
	}
	if res.Interrupted {
		obs.LogCtx(ctx, "mincut: interrupted after %v with %d/%d flows evaluated (bound is valid but possibly weaker)",
			res.Elapsed.Round(time.Millisecond), res.Evaluated, limit)
	}
	sp.SetInt("evaluated", int64(res.Evaluated))
	sp.SetInt("candidates", int64(limit))
	sp.SetFloat("bound", res.Bound)
	sp.End()
	return res, nil
}
