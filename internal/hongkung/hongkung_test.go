package hongkung

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/redblue"
)

func TestChainOnePart(t *testing.T) {
	// A chain is dominated by its single source and has one sink: P(S)=1
	// for any S ≥ 1, so the bound is trivially 0.
	g := gen.Chain(8)
	p, err := MinPartition(context.Background(), g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("chain P(1)=%d, want 1", p)
	}
	b, err := Bound(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Errorf("chain bound %g, want 0", b)
	}
}

func TestAntichainPartition(t *testing.T) {
	// n isolated vertices: each is its own source and sink; a part of k
	// vertices has dominator k and minimum k, so P(S) = ⌈n/S⌉.
	b := graph.NewBuilder(6, 0)
	b.AddVertices(6)
	g := b.MustBuild()
	for S, want := range map[int]int{1: 6, 2: 3, 3: 2, 6: 1} {
		p, err := MinPartition(context.Background(), g, S, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p != want {
			t.Errorf("antichain P(%d)=%d want %d", S, p, want)
		}
	}
}

func TestValidation(t *testing.T) {
	g := gen.Chain(3)
	if _, err := MinPartition(context.Background(), g, 0, Options{}); err == nil {
		t.Error("S=0 accepted")
	}
	if _, err := MinPartition(context.Background(), gen.FFT(3), 4, Options{}); err == nil {
		t.Error("32-vertex graph should exceed the 16-vertex limit")
	}
	if _, err := Bound(context.Background(), g, 0, Options{}); err == nil {
		t.Error("M=0 accepted")
	}
	empty := graph.NewBuilder(0, 0).MustBuild()
	if p, err := MinPartition(context.Background(), empty, 2, Options{}); err != nil || p != 0 {
		t.Errorf("empty graph: %d, %v", p, err)
	}
}

func TestDownSetCap(t *testing.T) {
	b := graph.NewBuilder(14, 0)
	b.AddVertices(14) // antichain: 2^14 down-sets
	if _, err := MinPartition(context.Background(), b.MustBuild(), 2, Options{MaxDownSets: 100}); err == nil {
		t.Error("down-set cap not enforced")
	}
}

func TestMinDominatorKnownCases(t *testing.T) {
	// Diamond 0→{1,2}→3: every path into {3} passes 0 (or 3, or the pair
	// {1,2}): min dominator of {3} is 1.
	b := graph.NewBuilder(4, 4)
	b.AddVertices(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		b.MustEdge(e[0], e[1])
	}
	g := b.MustBuild()
	if d, err := minDominator(context.Background(), g, 1<<3); err != nil || d != 1 {
		t.Errorf("dominator({3}) = %d, %v, want 1", d, err)
	}
	// Part {1,2}: dominated by {0}.
	if d, err := minDominator(context.Background(), g, 1<<1|1<<2); err != nil || d != 1 {
		t.Errorf("dominator({1,2}) = %d, %v, want 1", d, err)
	}
}

func TestBoundBelowExactTotalIO(t *testing.T) {
	// Hong-Kung bounds *total* I/O: on tiny graphs it must sit below the
	// exact optimum of the trivial-counting red-blue game.
	rng := rand.New(rand.NewSource(191))
	graphs := []*graph.Graph{
		gen.InnerProduct(2),
		gen.InnerProduct(3),
		gen.FFT(1),
		gen.Grid2D(3, 3),
	}
	for trial := 0; trial < 6; trial++ {
		b := graph.NewBuilder(0, 0)
		n := 5 + rng.Intn(6)
		b.AddVertices(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					b.MustEdge(u, v)
				}
			}
		}
		graphs = append(graphs, b.MustBuild())
	}
	for _, g := range graphs {
		for _, M := range []int{2, 3} {
			if g.MaxInDeg() > M {
				continue
			}
			hk, err := Bound(context.Background(), g, M, Options{})
			if err != nil {
				t.Fatalf("%s M=%d: %v", g.Name(), M, err)
			}
			exact, err := redblue.OptimalContext(context.Background(), g, M, redblue.Options{CountTrivial: true})
			if err != nil {
				t.Fatalf("%s M=%d: %v", g.Name(), M, err)
			}
			if hk > float64(exact.IO)+1e-9 {
				t.Errorf("%s M=%d: Hong-Kung bound %g exceeds exact total I/O %d",
					g.Name(), M, hk, exact.IO)
			}
		}
	}
}

func TestInnerProductNontrivialPartition(t *testing.T) {
	// Inner product of 3-vectors: 6 inputs force more than one part at
	// small S (a single part would need a dominator of 6).
	g := gen.InnerProduct(3)
	p, err := MinPartition(context.Background(), g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p < 2 {
		t.Errorf("P(4)=%d, want ≥ 2", p)
	}
	bound, err := Bound(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bound <= 0 {
		t.Errorf("Hong-Kung bound should be positive, got %g", bound)
	}
}

func TestCancelledSearchReturnsCtxError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.Grid2D(3, 4)
	if _, err := MinPartition(ctx, g, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("MinPartition under a cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := Bound(ctx, g, 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Bound under a cancelled ctx = %v, want context.Canceled", err)
	}
}
