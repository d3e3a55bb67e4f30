package main

import (
	"sync"
	"testing"
	"time"
)

// spinOp is a synthetic operator whose MatVec busy-waits for d, so its
// duration does not depend on timer resolution.
type spinOp struct {
	n int
	d time.Duration
}

func (o spinOp) Dim() int { return o.n }

func (o spinOp) MatVec(dst, src []float64) {
	copy(dst, src)
	for t := time.Now(); time.Since(t) < o.d; {
	}
}

func TestProbeCountsConcurrentMatVecs(t *testing.T) {
	const goroutines, calls = 4, 50
	const d = 200 * time.Microsecond
	ps := &probeSet{epoch: time.Now()}
	op := ps.wrap(spinOp{n: 8, d: d})
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst, src := make([]float64, 8), make([]float64, 8)
			for i := 0; i < calls; i++ {
				op.MatVec(dst, src)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	n, busy, inFlight := ps.totals()
	if n != goroutines*calls {
		t.Errorf("counted %d MatVecs, want %d", n, goroutines*calls)
	}
	if busy < goroutines*calls*d {
		t.Errorf("busy %v, want at least %v (every call spins %v)", busy, goroutines*calls*d, d)
	}
	// Each goroutine's calls are sequential, so the union covers at least
	// one goroutine's share; it never exceeds the wall time or the busy sum.
	if inFlight < calls*d || inFlight > wall || inFlight > busy {
		t.Errorf("in-flight union %v, want within [%v, min(wall %v, busy %v)]", inFlight, calls*d, wall, busy)
	}
}

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		name string
		ivls []interval
		want int64
	}{
		{"empty", nil, 0},
		{"one", []interval{{0, 10}}, 10},
		{"overlap", []interval{{0, 10}, {5, 15}}, 15},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"gap", []interval{{0, 10}, {20, 30}}, 20},
		{"nested unsorted", []interval{{20, 30}, {0, 100}, {40, 50}}, 100},
		{"two clusters", []interval{{50, 60}, {0, 10}, {55, 70}, {5, 12}}, 32},
	} {
		if got := unionLength(c.ivls); got != c.want {
			t.Errorf("%s: union %d, want %d", c.name, got, c.want)
		}
	}
}
