package main

import (
	"context"
	"testing"
	"time"
)

// TestServeShortRun drives the serve workload for a moment, untraced and
// traced, so the race detector sees both callers, the RSS sampler and the
// tracer at once.
func TestServeShortRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r, err := runServe(context.Background(), params{seed: defaultSeed, seconds: 2 * time.Second, trace: trace, work: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if r.attempted == 0 || r.failed != 0 {
			t.Fatalf("trace=%v: %d of %d jobs failed: %v", trace, r.failed, r.attempted, r.misses)
		}
		want := []string{"setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "heap_retained_mb"}
		if trace {
			want = []string{"graphiod.submit_p50_s", "graphiod.run_p50_s", "trace.overhead_ratio"}
			if len(r.metrics) != len(perLayerCatalog()) {
				t.Errorf("traced run printed %d metrics, the catalog has %d", len(r.metrics), len(perLayerCatalog()))
			}
		}
		for _, name := range want {
			if m, ok := r.metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("trace=%v: %s = %v, want a positive measurement", trace, name, m)
			}
		}
	}
}
