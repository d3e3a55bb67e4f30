package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// sameSpectrum fails unless got equals want field for field and every
// eigenvalue bit for bit.
func sameSpectrum(t *testing.T, what string, got, want *Spectrum) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %+v, want %+v", what, got, want)
	}
	for i := range want.Eigenvalues {
		if math.Float64bits(got.Eigenvalues[i]) != math.Float64bits(want.Eigenvalues[i]) {
			t.Fatalf("%s: λ[%d] = %x, want %x", what, i, got.Eigenvalues[i], want.Eigenvalues[i])
		}
	}
}

// memoScope enables telemetry under a fresh scope, so tests can read the
// memo counters and the core.spectrum span count back.
func memoScope(t *testing.T) (context.Context, *obs.Scope) {
	t.Helper()
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(false) })
	sc := obs.NewScope(t.Name())
	t.Cleanup(sc.Close)
	return obs.WithScope(context.Background(), sc), sc
}

// degradeOpts makes Chebyshev fail on hypercubeDAG(6), so the escalation
// chain switches to Lanczos and records why.
func degradeOpts() Options {
	return Options{MaxK: 20, Solver: SolverChebyshev, Chebyshev: &linalg.ChebOptions{MaxIter: 1, Degree: 1}}
}

func solves(sc *obs.Scope) int64 {
	return sc.Registry().Snapshot().Timers["span.core.spectrum"].Count
}

func TestMemoHitMatchesFreshSolve(t *testing.T) {
	g := hypercubeDAG(6)
	for _, s := range []Solver{SolverDense, SolverLanczos, SolverChebyshev} {
		for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			name := fmt.Sprintf("%v/%v", s, kind)
			opt := Options{MaxK: 20, Solver: s, Laplacian: kind}
			want, err := SolveSpectrum(context.Background(), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			ctx, sc := memoScope(t)
			ctx = WithMemo(ctx, NewMemo())
			miss, err := SolveSpectrum(ctx, g, opt)
			if err != nil {
				t.Fatal(err)
			}
			// M and Processors are not part of the key.
			opt.M, opt.Processors = 7, 3
			hit, err := SolveSpectrum(ctx, g, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameSpectrum(t, name+" miss", miss, want)
			sameSpectrum(t, name+" hit", hit, want)
			if got := sc.Counter("core.memo.hits"); got != 1 {
				t.Errorf("%s: core.memo.hits = %d, want 1", name, got)
			}
			if got := sc.Counter("core.memo.misses"); got != 1 {
				t.Errorf("%s: core.memo.misses = %d, want 1", name, got)
			}
			if got := solves(sc); got != 1 {
				t.Errorf("%s: %d core.spectrum spans, want 1", name, got)
			}
		}
	}
}

func TestMemoKeysOnContentAndResultAffectingOptions(t *testing.T) {
	ctx, sc := memoScope(t)
	ctx = WithMemo(ctx, NewMemo())
	solve := func(g *graph.Graph, opt Options) {
		t.Helper()
		if _, err := SolveSpectrum(ctx, g, opt); err != nil {
			t.Fatal(err)
		}
	}
	solve(hypercubeDAG(5), Options{MaxK: 8})
	// Hits: an equal graph built separately; nil solver options against
	// their zero values; a default spelled out.
	solve(hypercubeDAG(5), Options{MaxK: 8, Chebyshev: &linalg.ChebOptions{}, Lanczos: &linalg.LanczosOptions{}})
	solve(hypercubeDAG(5), Options{MaxK: 8, DenseCutoff: 1024})
	if got := solves(sc); got != 1 {
		t.Fatalf("equal keys solved %d times, want 1", got)
	}
	// Misses: every other graph or result-affecting option.
	other := graph.NewBuilder(32, 0)
	other.AddVertices(32)
	other.MustEdge(0, 1)
	for i, o := range []struct {
		g   *graph.Graph
		opt Options
	}{
		{other.MustBuild(), Options{MaxK: 8}},
		{hypercubeDAG(5), Options{MaxK: 9}},
		{hypercubeDAG(5), Options{MaxK: 8, Laplacian: laplacian.Original}},
		{hypercubeDAG(5), Options{MaxK: 8, Solver: SolverDense}},
		{hypercubeDAG(5), Options{MaxK: 8, DenseCutoff: 16}},
		{hypercubeDAG(5), Options{MaxK: 8, DenseFallbackCap: 16}},
		{hypercubeDAG(5), Options{MaxK: 8, NoFallback: true}},
		{hypercubeDAG(5), Options{MaxK: 8, Chebyshev: &linalg.ChebOptions{Seed: 5}}},
		{hypercubeDAG(5), Options{MaxK: 8, Lanczos: &linalg.LanczosOptions{Seed: 5}}},
	} {
		solve(o.g, o.opt)
		if got := solves(sc); got != int64(i+2) {
			t.Fatalf("case %d (%+v) did not solve: %d spans", i, o.opt, got)
		}
	}
	// WithMemo(ctx, nil) detaches the memo.
	if _, err := SolveSpectrum(WithMemo(ctx, nil), hypercubeDAG(5), Options{MaxK: 8}); err != nil {
		t.Fatal(err)
	}
	if got, want := solves(sc), int64(11); got != want {
		t.Fatalf("detached solve: %d spans, want %d", got, want)
	}
}

func TestMemoKeepsFallbacksOfDegradedSpectrum(t *testing.T) {
	g := hypercubeDAG(6)
	opt := degradeOpts()
	want, err := SolveSpectrum(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Degraded || len(want.Fallbacks) == 0 {
		t.Fatalf("degradeOpts did not degrade the spectrum: %+v", want)
	}
	ctx, sc := memoScope(t)
	ctx = WithMemo(ctx, NewMemo())
	for i := 0; i < 2; i++ {
		got, err := SolveSpectrum(ctx, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameSpectrum(t, fmt.Sprintf("call %d", i), got, want)
	}
	if got := sc.Counter("core.memo.hits"); got != 1 {
		t.Errorf("core.memo.hits = %d, want 1", got)
	}
}

func TestMemoStoresOnlySuccessfulSolves(t *testing.T) {
	m := NewMemo()
	ctx := WithMemo(context.Background(), m)
	opt := degradeOpts()
	opt.NoFallback = true
	for i := 0; i < 2; i++ {
		if _, err := SolveSpectrum(ctx, hypercubeDAG(6), opt); err == nil {
			t.Fatal("degradeOpts without fallbacks succeeded")
		}
	}
	if m.lru.Len() != 0 {
		t.Fatalf("failed solves left %d memo entries", m.lru.Len())
	}
}

func TestMemoBypassedWithWrapOperator(t *testing.T) {
	m := NewMemo()
	ctx := WithMemo(context.Background(), m)
	var mu sync.Mutex
	wraps := 0
	opt := Options{MaxK: 8, Solver: SolverChebyshev, WrapOperator: func(op linalg.Operator) linalg.Operator {
		mu.Lock()
		wraps++
		mu.Unlock()
		return op
	}}
	for i := 0; i < 3; i++ {
		if _, err := SolveSpectrum(ctx, hypercubeDAG(5), opt); err != nil {
			t.Fatal(err)
		}
	}
	if wraps != 3 {
		t.Errorf("wrapper saw %d solves, want 3", wraps)
	}
	if m.lru.Len() != 0 {
		t.Errorf("wrapped solves left %d memo entries", m.lru.Len())
	}
}

func TestMemoHitsAreCopies(t *testing.T) {
	ctx := WithMemo(context.Background(), NewMemo())
	g := hypercubeDAG(6)
	opt := degradeOpts()
	want, err := SolveSpectrum(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := SolveSpectrum(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	miss.Eigenvalues[0] = 99
	miss.Fallbacks[0] = "edited"
	hit, err := SolveSpectrum(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := hit.At(ctx, 4, 1)
	res.Eigenvalues[1] = 42
	res.Fallbacks[0] = "edited"
	again, err := SolveSpectrum(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameSpectrum(t, "hit after edits", again, want)
}

func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := NewMemo()
	key := func(i int) memoKey { return memoKey{maxK: i} }
	s := &Spectrum{Eigenvalues: []float64{0, 1}, N: 2}
	for i := 0; i < memoCap; i++ {
		m.put(key(i), s)
	}
	if _, ok := m.get(key(0)); !ok { // key 0 becomes the most recent
		t.Fatal("key 0 missing before the memo was full")
	}
	for i := memoCap; i < memoCap+10; i++ {
		m.put(key(i), s)
	}
	if m.lru.Len() != memoCap || len(m.entries) != memoCap {
		t.Fatalf("memo holds %d entries (%d mapped), cap %d", m.lru.Len(), len(m.entries), memoCap)
	}
	if _, ok := m.get(key(0)); !ok {
		t.Error("recently used key 0 was evicted")
	}
	for i := 1; i <= 10; i++ {
		if _, ok := m.get(key(i)); ok {
			t.Errorf("key %d survived past the cap", i)
		}
	}
	if _, ok := m.get(key(memoCap + 9)); !ok {
		t.Error("newest key missing")
	}
}

// Concurrent solves on one key and on different keys share one memo; run
// under -race. Every caller must see the fresh solve's bits.
func TestMemoConcurrentSolves(t *testing.T) {
	type job struct {
		g   *graph.Graph
		opt Options
	}
	var jobs []job
	for _, l := range []int{4, 5} {
		for _, kind := range []laplacian.Kind{laplacian.OutDegreeNormalized, laplacian.Original} {
			jobs = append(jobs, job{hypercubeDAG(l), Options{MaxK: 10, Laplacian: kind}})
		}
	}
	want := make([]*Spectrum, len(jobs))
	for i, j := range jobs {
		s, err := SolveSpectrum(context.Background(), j.g, j.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	ctx := WithMemo(context.Background(), NewMemo())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (w + r) % len(jobs)
				got, err := SolveSpectrum(ctx, jobs[i].g, jobs[i].opt)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d job %d: got %+v, want %+v", w, i, got, want[i])
				}
				got.Eigenvalues[0] = -1 // must not reach other callers
			}
		}(w)
	}
	wg.Wait()
}
