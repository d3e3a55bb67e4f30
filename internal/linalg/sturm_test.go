package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestTridiagEigBisectMatchesQL(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		diag := make([]float64, n)
		sub := make([]float64, n-1)
		for i := range diag {
			diag[i] = rng.NormFloat64() * 3
		}
		for i := range sub {
			sub[i] = rng.NormFloat64()
		}
		want, _, err := TridiagEig(diag, sub, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TridiagEigBisectContext(context.Background(), diag, sub, 0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Errorf("trial %d (n=%d): bisection vs QL differ by %g", trial, n, d)
		}
	}
}

func TestTridiagEigBisectSubrange(t *testing.T) {
	n := 30
	diag := make([]float64, n)
	sub := make([]float64, n-1)
	for i := range diag {
		diag[i] = 2
	}
	for i := range sub {
		sub[i] = -1
	}
	// Path-like Toeplitz: eigenvalues 2 − 2cos(πj/(n+1)), j=1..n.
	all, err := TridiagEigBisectContext(context.Background(), diag, sub, 0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= n; j++ {
		want := 2 - 2*math.Cos(math.Pi*float64(j)/float64(n+1))
		if math.Abs(all[j-1]-want) > 1e-10 {
			t.Fatalf("eigenvalue %d: %g want %g", j, all[j-1], want)
		}
	}
	// Interior slice only.
	mid, err := TridiagEigBisectContext(context.Background(), diag, sub, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mid {
		if math.Abs(v-all[10+i]) > 1e-10 {
			t.Errorf("subrange mismatch at %d: %g vs %g", i, v, all[10+i])
		}
	}
}

func TestTridiagEigBisectRepeatedEigenvalues(t *testing.T) {
	// Diagonal matrix with repeats: bisection must count multiplicity.
	diag := []float64{1, 3, 3, 3, 7}
	sub := []float64{0, 0, 0, 0}
	got, err := TridiagEigBisectContext(context.Background(), diag, sub, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 3, 3, 7}
	if d := maxAbsDiff(got, want); d > 1e-10 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestTridiagEigBisectValidation(t *testing.T) {
	if _, err := TridiagEigBisectContext(context.Background(), []float64{1, 2}, []float64{}, 0, 1); err == nil {
		t.Error("bad sub length accepted")
	}
	if _, err := TridiagEigBisectContext(context.Background(), []float64{1, 2}, []float64{0}, 1, 0); err == nil {
		t.Error("lo > hi accepted")
	}
	if _, err := TridiagEigBisectContext(context.Background(), []float64{1, 2}, []float64{0}, 0, 5); err == nil {
		t.Error("hi out of range accepted")
	}
}

func TestSymEigBisectMatchesSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(25)
		a := randomSymmetric(rng, n)
		want, _, err := SymEig(a, false)
		if err != nil {
			t.Fatal(err)
		}
		h := 1 + rng.Intn(n)
		got, err := SymEigBisect(context.Background(), a, 0, h-1)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want[:h]); d > 1e-8 {
			t.Errorf("trial %d: bisect differs from QL by %g", trial, d)
		}
	}
	if out, err := SymEigBisect(context.Background(), NewDense(0), 0, 0); err != nil || out != nil {
		t.Error("empty matrix should return nil, nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SymEigBisect(ctx, randomSymmetric(rng, 8), 0, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("SymEigBisect under a cancelled ctx = %v, want context.Canceled", err)
	}
}
