package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// probe wraps the Laplacian operator an iterative eigensolver sees (through
// core.Options.WrapOperator, or directly in the layer decomposition) and
// records every MatVec as a child span of the solve. The Chebyshev solver
// applies the operator from a pool of worker goroutines, so the call count
// and busy time are atomics and the interval log is guarded by a mutex.
type probe struct {
	op    linalg.Operator
	epoch time.Time
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds, summed over goroutines

	mu   sync.Mutex
	ivls []interval
}

// interval is a half-open [start, end) in nanoseconds since an epoch.
type interval struct{ start, end int64 }

func (p *probe) Dim() int { return p.op.Dim() }

func (p *probe) MatVec(dst, src []float64) {
	t0 := obs.Since(p.epoch)
	p.op.MatVec(dst, src)
	t1 := obs.Since(p.epoch)
	p.calls.Add(1)
	p.busy.Add(int64(t1 - t0))
	p.mu.Lock()
	p.ivls = append(p.ivls, interval{int64(t0), int64(t1)})
	p.mu.Unlock()
}

// inFlight returns the length of the union of the recorded MatVec
// intervals: the wall time during which at least one MatVec was running.
func (p *probe) inFlight() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(unionLength(p.ivls))
}

// unionLength measures the union of possibly overlapping intervals.
func unionLength(ivls []interval) int64 {
	s := append([]interval(nil), ivls...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, curStart, curEnd int64
	open := false
	for _, iv := range s {
		if open && iv.start <= curEnd {
			curEnd = max(curEnd, iv.end)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = iv.start, iv.end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// probeSet collects the probes one bound creates: core applies
// WrapOperator afresh for every solver attempt.
type probeSet struct {
	epoch time.Time
	slow  func(linalg.Operator) linalg.Operator
	mu    sync.Mutex
	all   []*probe
}

// wrap is the WrapOperator hook. slow, when non-nil, sits beneath the
// probe so its extra cost counts as MatVec time (the attribution test
// uses it to slow each product).
func (ps *probeSet) wrap(op linalg.Operator) linalg.Operator {
	if ps.slow != nil {
		op = ps.slow(op)
	}
	p := &probe{op: op, epoch: ps.epoch}
	ps.mu.Lock()
	ps.all = append(ps.all, p)
	ps.mu.Unlock()
	return p
}

// totals sums calls, busy time and in-flight time over every probe.
func (ps *probeSet) totals() (calls int64, busy, inFlight time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.all {
		calls += p.calls.Load()
		busy += time.Duration(p.busy.Load())
		inFlight += p.inFlight()
	}
	return calls, busy, inFlight
}
