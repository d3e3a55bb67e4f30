// Package maxflow implements Dinic's maximum-flow algorithm on integer
// capacities. It is the substrate of the convex min-cut baseline: vertex
// separators are computed as s-t cuts on a split-node network.
package maxflow

import (
	"context"
	"errors"
	"math"

	"graphio/internal/obs"
)

// Inf is the capacity used for uncuttable edges.
const Inf int64 = math.MaxInt64 / 4

// Network is a flow network under construction and solution. Vertices are
// dense integers; add edges, then call MaxFlowContext once.
type Network struct {
	n     int
	head  []int32 // head[v]: first arc index of v, -1 if none
	next  []int32 // next arc in v's list
	to    []int32
	cap   []int64
	level []int32
	iter  []int32
}

// NewNetwork returns a flow network on n vertices.
func NewNetwork(n int) *Network {
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &Network{n: n, head: head}
}

// N returns the number of vertices.
func (f *Network) N() int { return f.n }

// AddEdge adds a directed edge u→v with the given capacity (and the
// implicit residual reverse edge of capacity 0). Arc indices are even for
// forward edges; e^1 is always e's reverse.
func (f *Network) AddEdge(u, v int, capacity int64) error {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		return errors.New("maxflow: edge endpoint out of range")
	}
	if capacity < 0 {
		return errors.New("maxflow: negative capacity")
	}
	f.addArc(u, v, capacity)
	f.addArc(v, u, 0)
	return nil
}

func (f *Network) addArc(u, v int, capacity int64) {
	f.to = append(f.to, int32(v))
	f.cap = append(f.cap, capacity)
	f.next = append(f.next, f.head[u])
	f.head[u] = int32(len(f.to) - 1)
}

// bfs builds the level graph; returns false when t is unreachable.
func (f *Network) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	queue := make([]int32, 0, f.n)
	f.level[s] = 0
	queue = append(queue, int32(s))
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for e := f.head[v]; e != -1; e = f.next[e] {
			if f.cap[e] > 0 && f.level[f.to[e]] == -1 {
				f.level[f.to[e]] = f.level[v] + 1
				queue = append(queue, f.to[e])
			}
		}
	}
	return f.level[t] != -1
}

// dfs sends blocking flow along the level graph.
func (f *Network) dfs(v int32, t int32, pushed int64) int64 {
	if v == t {
		return pushed
	}
	for ; f.iter[v] != -1; f.iter[v] = f.next[f.iter[v]] {
		e := f.iter[v]
		u := f.to[e]
		if f.cap[e] <= 0 || f.level[u] != f.level[v]+1 {
			continue
		}
		d := pushed
		if f.cap[e] < d {
			d = f.cap[e]
		}
		got := f.dfs(u, t, d)
		if got > 0 {
			f.cap[e] -= got
			f.cap[e^1] += got
			return got
		}
	}
	return 0
}

// MaxFlowContext computes the maximum s-t flow. The network's residual
// capacities are mutated; call MinCutSide afterwards to read the cut. Its
// per-phase probe events are attributed to ctx's telemetry scope. Dinic
// phases are too short to warrant cancellation checks; the context exists
// purely for attribution.
func (f *Network) MaxFlowContext(ctx context.Context, s, t int) (int64, error) {
	if s < 0 || s >= f.n || t < 0 || t >= f.n {
		return 0, errors.New("maxflow: source or sink out of range")
	}
	if s == t {
		return 0, errors.New("maxflow: source equals sink")
	}
	f.level = make([]int32, f.n)
	f.iter = make([]int32, f.n)
	var total int64
	phase := int64(0)
	for f.bfs(s, t) {
		copy(f.iter, f.head)
		paths := int64(0)
		for {
			pushed := f.dfs(int32(s), int32(t), Inf)
			if pushed == 0 {
				break
			}
			paths++
			total += pushed
			if total >= Inf {
				return total, errors.New("maxflow: flow exceeds Inf — unbounded cut")
			}
		}
		if obs.EventsEnabled() {
			obs.Probe("maxflow.dinic").IterCtx(ctx, phase,
				obs.FI("paths", paths),
				obs.FI("flow", total),
				obs.FI("level_t", int64(f.level[t])))
		}
		phase++
	}
	return total, nil
}

// MinCutSide returns, after MaxFlowContext, the source side of a minimum cut: the
// vertices reachable from s in the residual network.
func (f *Network) MinCutSide(s int) []bool {
	side := make([]bool, f.n)
	stack := []int32{int32(s)}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := f.head[v]; e != -1; e = f.next[e] {
			if f.cap[e] > 0 && !side[f.to[e]] {
				side[f.to[e]] = true
				stack = append(stack, f.to[e])
			}
		}
	}
	return side
}
