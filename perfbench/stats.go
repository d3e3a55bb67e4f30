package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"

	"graphio/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the R-7 / NumPy default). It returns NaN for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timeSetup runs a workload's set-up setupRepeats times and returns the
// median wall time: set-up is short, so one sample would be mostly noise.
func timeSetup(setup func() error) (float64, error) {
	ts := make([]float64, setupRepeats)
	for i := range ts {
		t0 := obs.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts[i] = obs.Since(t0).Seconds()
	}
	return median(ts), nil
}

// retainedMB collects garbage and returns the live heap in MB: what the
// process still holds once the measured work is done and the benchmark has
// dropped its own records of it. A cache that trades memory for speed
// shows here. The resident set size would also show working memory, but on
// a 2-vCPU host it is too unsteady to gate: VmHWM swings between 33 and
// 47 MB on sweep, and even a sampled RSS or live-heap median on dense reads
// one or two 8 MB matrices higher in some runs, depending on which
// allocation the garbage collector's cycle lines up with.
func retainedMB() float64 {
	// The telemetry layer keeps the final section of every closed scope,
	// up to 1024 of them, and graphiod and RunAll close one per job or
	// experiment: left in, that table would grow with throughput.
	obs.ResetScopes()
	// Twice: memory held by objects with finalizers (closed connections,
	// files) is only freed by the collection after their finalizers ran.
	runtime.GC()
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()) / 1e6
}
