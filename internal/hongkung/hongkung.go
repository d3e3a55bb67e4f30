// Package hongkung computes the classic Hong-Kung 2S-partition lower
// bound *exactly* on small graphs. Hong & Kung (1981) bound the total I/O
// of any execution by
//
//	Q  ≥  S · (P(2S) − 1)
//
// where P(2S) is the minimum number of parts in a 2S-partition of the
// computation DAG: a partition V = V1 ∪ … ∪ Vh with an acyclic quotient,
// every part having a dominator set of at most 2S vertices (a set meeting
// every path from the inputs into the part) and a minimum set of at most
// 2S vertices (the part's members with no successor inside it).
//
// The paper compares against an ILP formulation of this bound ([12]) only
// in prose — "intractable, cannot be performed for large graphs". This
// package fills the toy-scale gap: an acyclic quotient order makes prefix
// unions of parts down-sets, so P(S) is a shortest path in the down-set
// lattice, exact for graphs of a dozen vertices. Dominator sizes are
// minimum vertex cuts (package maxflow); memoized per part mask.
//
// Accounting caveat: Hong-Kung counts *total* I/O (inputs are loaded,
// outputs stored). Compare its bound against redblue.OptimalContext with
// CountTrivial set — not against the paper's non-trivial-I/O quantities.
package hongkung

import (
	"context"
	"errors"
	"fmt"

	"graphio/internal/graph"
	"graphio/internal/maxflow"
)

// Options bounds the exact search.
type Options struct {
	// MaxDownSets aborts when the graph has more down-sets than this; the
	// lattice search touches down-set *pairs*, so the default (8192) keeps
	// worst-case work around 10^7 transitions.
	MaxDownSets int
}

// MinPartition returns P(S): the minimum number of parts in an S-partition
// of g. Limited to 16 vertices. ctx is checked once per down-set the
// lattice search expands; a cancelled or expired context returns its
// error.
func MinPartition(ctx context.Context, g *graph.Graph, S int, opt Options) (int, error) {
	n := g.N()
	if n > 16 {
		return 0, fmt.Errorf("hongkung: exact partition limited to 16 vertices, graph has %d", n)
	}
	if S < 1 {
		return 0, errors.New("hongkung: S must be ≥ 1")
	}
	if n == 0 {
		return 0, nil
	}
	maxDS := opt.MaxDownSets
	if maxDS <= 0 {
		maxDS = 1 << 13
	}

	preds, succs := adjacencyMasks(g)
	all := uint32(1)<<n - 1

	// Enumerate all down-sets (prefix-closed vertex sets).
	downSets, err := enumerateDownSets(n, preds, maxDS)
	if err != nil {
		return 0, err
	}
	index := make(map[uint32]int, len(downSets))
	for i, d := range downSets {
		index[d] = i
	}

	domCache := make(map[uint32]int)
	minimumOK := func(part uint32) bool {
		count := 0
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if part&bit != 0 && succs[v]&part == 0 {
				count++
				if count > S {
					return false
				}
			}
		}
		return true
	}
	dominatorSize := func(part uint32) (int, error) {
		if d, ok := domCache[part]; ok {
			return d, nil
		}
		d, err := minDominator(ctx, g, part)
		if err != nil {
			return 0, err
		}
		domCache[part] = d
		return d, nil
	}

	// BFS over the down-set lattice: dist[D] = min parts to realize D.
	const inf = int32(1) << 30
	dist := make([]int32, len(downSets))
	for i := range dist {
		dist[i] = inf
	}
	dist[index[0]] = 0
	// Process down-sets in increasing popcount (valid BFS order is by
	// dist; uniform part cost makes layered BFS via a queue correct).
	queue := []uint32{0}
	for qi := 0; qi < len(queue); qi++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("hongkung: partition search: %w", err)
		}
		d := queue[qi]
		di := dist[index[d]]
		if d == all {
			return int(di), nil
		}
		for _, d2 := range downSets {
			if d2&d != d || d2 == d {
				continue
			}
			part := d2 &^ d
			if !minimumOK(part) {
				continue
			}
			i2 := index[d2]
			if dist[i2] != inf {
				continue // already reached in fewer or equal parts
			}
			ds, err := dominatorSize(part)
			if err != nil {
				return 0, err
			}
			if ds > S {
				continue
			}
			dist[i2] = di + 1
			queue = append(queue, d2)
		}
	}
	if dist[index[all]] >= inf {
		return 0, errors.New("hongkung: no valid S-partition (S too small for some unavoidable part)")
	}
	return int(dist[index[all]]), nil
}

// adjacencyMasks returns each vertex's predecessors and successors as
// bitmasks.
func adjacencyMasks(g *graph.Graph) (preds, succs []uint32) {
	n := g.N()
	preds = make([]uint32, n)
	succs = make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, p := range g.Pred(v) {
			preds[v] |= 1 << uint(p)
		}
		for _, s := range g.Succ(v) {
			succs[v] |= 1 << uint(s)
		}
	}
	return preds, succs
}

// enumerateDownSets lists every prefix-closed subset of V.
func enumerateDownSets(n int, preds []uint32, cap int) ([]uint32, error) {
	out := []uint32{0}
	seen := map[uint32]bool{0: true}
	for qi := 0; qi < len(out); qi++ {
		d := out[qi]
		for v := 0; v < n; v++ {
			bit := uint32(1) << uint(v)
			if d&bit != 0 || preds[v]&^d != 0 {
				continue
			}
			nd := d | bit
			if !seen[nd] {
				if len(out) >= cap {
					return nil, fmt.Errorf("hongkung: more than %d down-sets", cap)
				}
				seen[nd] = true
				out = append(out, nd)
			}
		}
	}
	return out, nil
}

// minDominator computes the minimum size of a vertex set meeting every
// path from the graph's sources to the given part, as a min vertex s-t cut
// (vertices inside the part may themselves be dominators). The network
// indices are in range by construction, so errors here indicate a bug in
// the reduction and surface as wrapped errors rather than panics.
func minDominator(ctx context.Context, g *graph.Graph, part uint32) (int, error) {
	net, s, t, err := dominatorNetwork(g, part)
	if err != nil {
		return 0, fmt.Errorf("hongkung: dominator network: %w", err)
	}
	flow, err := net.MaxFlowContext(ctx, s, t)
	if err != nil {
		return 0, fmt.Errorf("hongkung: dominator max-flow: %w", err)
	}
	return int(flow), nil
}

// dominatorNetwork builds minDominator's split-node network: u_in = 2u,
// u_out = 2u+1, source s = 2n wired to every graph source, sink t = 2n+1
// wired from every part member.
func dominatorNetwork(g *graph.Graph, part uint32) (net *maxflow.Network, s, t int, err error) {
	n := g.N()
	net = maxflow.NewNetwork(2*n + 2)
	s, t = 2*n, 2*n+1
	for u := 0; u < n; u++ {
		if err := net.AddEdge(2*u, 2*u+1, 1); err != nil {
			return nil, 0, 0, err
		}
	}
	for x := 0; x < n; x++ {
		for _, y := range g.Succ(x) {
			if err := net.AddEdge(2*x+1, 2*int(y), maxflow.Inf); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	for u := 0; u < n; u++ {
		if g.InDeg(u) == 0 {
			if err := net.AddEdge(s, 2*u, maxflow.Inf); err != nil {
				return nil, 0, 0, err
			}
		}
		if part&(1<<uint(u)) != 0 {
			if err := net.AddEdge(2*u+1, t, maxflow.Inf); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return net, s, t, nil
}

// Bound returns the Hong-Kung lower bound on the *total* I/O of any
// execution with fast memory M: M · (P(2M) − 1). ctx cancels the
// partition search as in MinPartition.
func Bound(ctx context.Context, g *graph.Graph, M int, opt Options) (float64, error) {
	if M < 1 {
		return 0, errors.New("hongkung: M must be ≥ 1")
	}
	p, err := MinPartition(ctx, g, 2*M, opt)
	if err != nil {
		return 0, err
	}
	if p <= 1 {
		return 0, nil
	}
	return float64(M) * float64(p-1), nil
}
