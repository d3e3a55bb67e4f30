package redblue

import (
	"context"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/graph"
)

func TestTrivialChainKnownValue(t *testing.T) {
	// Chain of 2 under Hong-Kung accounting: one read of the input, one
	// write of the output — exactly 2 I/Os at any M ≥ 1.
	g := gen.Chain(2)
	res, err := OptimalContext(context.Background(), g, 1, Options{CountTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != 2 {
		t.Errorf("chain-2 total J*=%d, want 2", res.IO)
	}
	// Chain of k: still one input read and one output write — the
	// intermediate values never leave fast memory.
	res, err = OptimalContext(context.Background(), gen.Chain(6), 2, Options{CountTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != 2 {
		t.Errorf("chain-6 total J*=%d, want 2", res.IO)
	}
}

func TestTrivialInnerProductKnownValue(t *testing.T) {
	// Inner product of 2-vectors at M=2: 4 input reads + 1 output write
	// are unavoidable; with only 2 slots the partial products force extra
	// traffic. Total must be ≥ 5 and ≥ the non-trivial optimum + 5.
	g := gen.InnerProduct(2)
	total, err := OptimalContext(context.Background(), g, 2, Options{CountTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	nontrivial, err := OptimalContext(context.Background(), g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if total.IO < 5 {
		t.Errorf("total J*=%d, want ≥ 5 (4 inputs + 1 output)", total.IO)
	}
	if total.IO < nontrivial.IO {
		t.Errorf("total J*=%d below non-trivial J*=%d", total.IO, nontrivial.IO)
	}
}

func TestTrivialDominatesNontrivialProperty(t *testing.T) {
	// Counting strictly more events can never reduce the optimum.
	for _, g := range []*graph.Graph{
		gen.FFT(2), gen.Grid2D(3, 3), gen.BinaryTreeReduce(2), gen.InnerProduct(3),
	} {
		for _, M := range []int{2, 3} {
			if g.MaxInDeg() > M {
				continue
			}
			tot, err := OptimalContext(context.Background(), g, M, Options{CountTrivial: true})
			if err != nil {
				t.Fatal(err)
			}
			nt, err := OptimalContext(context.Background(), g, M, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tot.IO < nt.IO {
				t.Errorf("%s M=%d: total %d < non-trivial %d", g.Name(), M, tot.IO, nt.IO)
			}
			// Inputs+outputs is a floor on the total-I/O optimum whenever
			// fast memory cannot hold the whole computation.
			if g.N() > M {
				floor := len(g.Sources()) + len(g.Sinks())
				if tot.IO < floor {
					t.Errorf("%s M=%d: total %d below trivial floor %d", g.Name(), M, tot.IO, floor)
				}
			}
		}
	}
}
