package main

import (
	"context"
	"math"
	"testing"
	"time"

	"graphio/internal/core"
	"graphio/internal/gen"
	"graphio/internal/graphiod"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
)

func fixedInputFor(t *testing.T, refs refSet, w boundsWorkload, name string) boundInput {
	t.Helper()
	for _, f := range w.fixed {
		if f.name == name {
			ref := refs[specKey(name, laplacian.OutDegreeNormalized)]
			if ref == nil {
				t.Fatalf("no reference for %s", name)
			}
			return boundInput{name: name, key: name, g: f.build(), m: 1, ref: ref}
		}
	}
	t.Fatalf("%s is not a %s input", name, w.name)
	return boundInput{}
}

// TestAttributionNamesLinalg is the attribution self-test: an operator
// slowed per MatVec through core.Options.WrapOperator must move
// linalg.matvec_busy_s and the iterative input's bound time (so
// bounds_per_s), leave laplacian.build_s, core.ksweep_s and a dense input
// unchanged, and make the report name linalg as the layer that moved.
func TestAttributionNamesLinalg(t *testing.T) {
	if testing.Short() {
		t.Skip("solves fft-8 and matmul-8 four times")
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	iter := fixedInputFor(t, refs, iterativeWorkload, "fft-8")
	dense := fixedInputFor(t, refs, denseWorkload, "matmul-8")
	measure := func(slow func(linalg.Operator) linalg.Operator) map[string]float64 {
		tr := newTracer()
		out := map[string]float64{}
		var traces []inputTrace
		for _, in := range []boundInput{iter, dense} {
			tc := traceInput(context.Background(), tr, in, slow)
			if tc.err != nil {
				t.Fatalf("%s: %v", in.name, tc.err)
			}
			if m := tc.pathMiss(); m != "" {
				t.Fatal(m)
			}
			if m := checkResult(in, tc.res, nil); len(m) > 0 {
				t.Fatal(m)
			}
			traces = append(traces, tc)
		}
		for name, m := range boundLayerMetrics(tr, traces) {
			out[name] = m.Value
		}
		return out
	}
	base := measure(nil)
	slowed := measure(func(op linalg.Operator) linalg.Operator { return spinWrap{op, 300 * time.Microsecond} })

	if b, s := base["linalg.matvec_busy_s"], slowed["linalg.matvec_busy_s"]; s < 1.5*b {
		t.Errorf("linalg.matvec_busy_s %.3f -> %.3f, want it to grow by half or more", b, s)
	}
	if b, s := base["core.bound_s.fft-8"], slowed["core.bound_s.fft-8"]; s < 1.2*b {
		t.Errorf("fft-8 bound time %.3f -> %.3f s: bounds_per_s on the iterative input did not fall", b, s)
	}
	// Unchanged means within a tenth of the delay injected into linalg: on
	// a shared host, identical solves differ by a fifth from run to run.
	injected := (slowed["linalg.cheb_s"] + slowed["linalg.dense_s"]) - (base["linalg.cheb_s"] + base["linalg.dense_s"])
	for _, name := range []string{"laplacian.build_s", "core.ksweep_s", "core.bound_s.matmul-8"} {
		if b, s := base[name], slowed[name]; math.Abs(s-b) > 0.1*injected {
			t.Errorf("%s moved %.4f -> %.4f s against %.3f s injected; the slowed operator never reaches it", name, b, s, injected)
		}
	}
	moved := movedLayers(base, slowed)
	if len(moved) != 1 || moved[0].layer != "linalg" {
		t.Errorf("report names %v as moved, want exactly linalg", moved)
	}
}

// spinWrap busy-waits d inside every MatVec of the operator it wraps.
type spinWrap struct {
	linalg.Operator
	d time.Duration
}

func (s spinWrap) MatVec(dst, src []float64) {
	s.Operator.MatVec(dst, src)
	for t := time.Now(); time.Since(t) < s.d; {
	}
}

// TestGateRejectsPerturbedReference checks both directions of the bound
// gate on a real solve: the recorded reference passes, and a reference
// with one eigenvalue nudged by 1e-3 fails.
func TestGateRejectsPerturbedReference(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphiod.BuildSpec("fft:5")
	if err != nil {
		t.Fatal(err)
	}
	ref := refs["fft:5/normalized"]
	in := boundInput{name: "fft:5", key: "fft:5", g: g, m: 1, ref: ref}
	res, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound <= 0 {
		t.Fatalf("fft:5 at M=1 certifies nothing (bound %g); pick a positive case", res.Bound)
	}
	if misses := checkResult(in, res, nil); len(misses) > 0 {
		t.Fatalf("recorded reference rejected: %v", misses)
	}
	bad := *ref
	bad.Values = append([]float64(nil), ref.Values...)
	bad.Values[res.BestK-1] += 1e-3
	in.ref = &bad
	if misses := checkResult(in, res, nil); len(misses) == 0 {
		t.Fatal("a reference perturbed by 1e-3 passed the gate")
	}
}

// TestInvariantCheckRejectsOverstatedSpectrum covers the seed-generated
// inputs that have no reference: inflating the eigenvalues must trip the
// consistency or the pebble.Simulate upper-bound check.
func TestInvariantCheckRejectsOverstatedSpectrum(t *testing.T) {
	g := gen.RandomLayeredDAG(8, 8, 3, 42)
	in := boundInput{name: "rdag", key: "rdag-test", g: g, m: 3}
	res, err := core.SpectralBoundContext(context.Background(), g, core.Options{M: in.m})
	if err != nil {
		t.Fatal(err)
	}
	if misses := checkResult(in, res, nil); len(misses) > 0 {
		t.Fatalf("true result rejected: %v", misses)
	}
	inflated := *res
	inflated.Eigenvalues = make([]float64, len(res.Eigenvalues))
	for i := range inflated.Eigenvalues {
		inflated.Eigenvalues[i] = 1e6
	}
	if misses := checkResult(in, &inflated, nil); len(misses) == 0 {
		t.Fatal("an overstated spectrum passed the invariant checks")
	}
}

func TestCompareCSV(t *testing.T) {
	ref, err := readCSV([]byte("graph,n,bound,note,spectral_s\nfft-7,1024,6.38,,0.003\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  string
		ok   bool
	}{
		{"identical", "graph,n,bound,note,spectral_s\nfft-7,1024,6.38,,0.003\n", true},
		{"last digit flip", "graph,n,bound,note,spectral_s\nfft-7,1024,6.39,,0.003\n", true},
		{"timing column differs", "graph,n,bound,note,spectral_s\nfft-7,1024,6.38,,9.9\n", true},
		{"numeric cell off", "graph,n,bound,note,spectral_s\nfft-7,1024,6.41,,0.003\n", false},
		{"integer off by one", "graph,n,bound,note,spectral_s\nfft-7,1025,6.38,,0.003\n", false},
		{"text cell differs", "graph,n,bound,note,spectral_s\nfft-7,1024,6.38,timeout,0.003\n", false},
		{"missing row", "graph,n,bound,note,spectral_s\n", false},
		{"inf against a number", "graph,n,bound,note,spectral_s\nfft-7,1024,inf,,0.003\n", false},
	} {
		miss := compareCSV([]byte(c.got), ref, map[string]bool{"spectral_s": true})
		if (miss == "") != c.ok {
			t.Errorf("%s: miss %q, want ok=%v", c.name, miss, c.ok)
		}
	}
	if miss := compareCSV([]byte("a,b\n1,inf\n"), [][]string{{"a", "b"}, {"1", "inf"}}, nil); miss != "" {
		t.Errorf("identical inf cells rejected: %s", miss)
	}
	for _, bad := range []string{"n,v\n1,-0.5\n", "n,v\n1,NaN\n", "n,v\n"} {
		if miss := invariantCSV([]byte(bad)); miss == "" {
			t.Errorf("invariant check passed %q", bad)
		}
	}
}
