package maxflow

import (
	"context"
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, f *Network, u, v int, c int64) {
	t.Helper()
	if err := f.AddEdge(u, v, c); err != nil {
		t.Fatal(err)
	}
}

func TestSingleEdge(t *testing.T) {
	f := NewNetwork(2)
	mustEdge(t, f, 0, 1, 7)
	flow, err := f.MaxFlowContext(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 7 {
		t.Fatalf("flow=%d want 7", flow)
	}
	side := f.MinCutSide(0)
	if !side[0] || side[1] {
		t.Errorf("cut side: %v", side)
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS figure: max flow 23.
	f := NewNetwork(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	mustEdge(t, f, s, v1, 16)
	mustEdge(t, f, s, v2, 13)
	mustEdge(t, f, v1, v3, 12)
	mustEdge(t, f, v2, v1, 4)
	mustEdge(t, f, v2, v4, 14)
	mustEdge(t, f, v3, v2, 9)
	mustEdge(t, f, v3, tt, 20)
	mustEdge(t, f, v4, v3, 7)
	mustEdge(t, f, v4, tt, 4)
	flow, err := f.MaxFlowContext(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 23 {
		t.Fatalf("flow=%d want 23", flow)
	}
}

func TestDisconnected(t *testing.T) {
	f := NewNetwork(4)
	mustEdge(t, f, 0, 1, 5)
	mustEdge(t, f, 2, 3, 5)
	flow, err := f.MaxFlowContext(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 0 {
		t.Fatalf("flow=%d want 0", flow)
	}
}

func TestParallelPaths(t *testing.T) {
	f := NewNetwork(4)
	mustEdge(t, f, 0, 1, 3)
	mustEdge(t, f, 0, 2, 5)
	mustEdge(t, f, 1, 3, 4)
	mustEdge(t, f, 2, 3, 2)
	flow, err := f.MaxFlowContext(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 5 { // min(3,4) + min(5,2)
		t.Fatalf("flow=%d want 5", flow)
	}
}

func TestErrors(t *testing.T) {
	f := NewNetwork(2)
	if err := f.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := f.AddEdge(0, 1, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := f.MaxFlowContext(context.Background(), 0, 0); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := f.MaxFlowContext(context.Background(), 0, 9); err == nil {
		t.Error("sink out of range accepted")
	}
}

// bruteMinCut enumerates all s-t cuts of a small network described by an
// explicit edge list and returns the minimum cut capacity.
func bruteMinCut(n int, edges [][3]int64, s, t int) int64 {
	best := int64(1) << 60
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<s) == 0 || mask&(1<<t) != 0 {
			continue
		}
		var capSum int64
		for _, e := range edges {
			if mask&(1<<e[0]) != 0 && mask&(1<<e[1]) == 0 {
				capSum += e[2]
			}
		}
		if capSum < best {
			best = capSum
		}
	}
	return best
}

func TestMaxFlowEqualsBruteMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		var edges [][3]int64
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(9))})
				}
			}
		}
		f := NewNetwork(n)
		for _, e := range edges {
			mustEdge(t, f, int(e[0]), int(e[1]), e[2])
		}
		flow, err := f.MaxFlowContext(context.Background(), 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteMinCut(n, edges, 0, n-1)
		if flow != want {
			t.Fatalf("trial %d: flow %d != brute min cut %d (n=%d, edges=%v)", trial, flow, want, n, edges)
		}
		// The reported cut side must realize the same capacity.
		side := f.MinCutSide(0)
		var across int64
		for _, e := range edges {
			if side[e[0]] && !side[e[1]] {
				across += e[2]
			}
		}
		if across != flow {
			t.Fatalf("trial %d: cut side capacity %d != flow %d", trial, across, flow)
		}
	}
}
