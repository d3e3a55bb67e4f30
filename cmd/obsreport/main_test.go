package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	//lint:ignore persist-writes test fixture in t.TempDir; durability machinery would only add fsync noise
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const metricsJSON = `{
  "counters": {"linalg.matvecs": 1200, "mincut.flows": 40},
  "gauges": {"wall_seconds": 2.5},
  "timers": {
    "span.core.spectral_bound": {"count": 5, "total_ns": 1000000, "min_ns": 100000, "max_ns": 400000, "avg_ns": 200000},
    "span.core.spectral_bound/eigensolve": {"count": 5, "total_ns": 800000, "min_ns": 80000, "max_ns": 300000, "avg_ns": 160000}
  },
  "hists": {
    "core.boundk_ns": {"count": 500, "sum": 100000, "min": 50, "max": 900, "mean": 200, "p50": 180, "p90": 600, "p99": 880}
  }
}`

const traceJSON = `{"traceEvents":[
{"name":"core.spectral_bound","cat":"obs","ph":"X","ts":0.000,"dur":1000.000,"pid":1,"tid":1,"args":{}},
{"name":"core.spectral_bound/eigensolve","cat":"obs","ph":"X","ts":10.000,"dur":800.000,"pid":1,"tid":1,"args":{}}
],"displayTimeUnit":"ns"}`

func TestLoadDetectsFormats(t *testing.T) {
	cases := []struct {
		content string
		kind    string
	}{
		{metricsJSON, "metrics"},
		{traceJSON, "trace"},
	}
	for _, c := range cases {
		in, err := load(write(t, "in.json", c.content))
		if err != nil {
			t.Fatalf("load(%s): %v", c.kind, err)
		}
		if in.kind != c.kind {
			t.Errorf("kind = %q, want %q", in.kind, c.kind)
		}
	}
	// An object of neither shape, a go test -bench result map included,
	// is refused with an error that names the file.
	for _, bad := range []string{
		`{"what": "ever"}`,
		`{"BenchmarkBound": {"iterations": 3, "ns_per_op": 1000000}}`,
	} {
		path := write(t, "bad.json", bad)
		if _, err := load(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("load(%s) = %v, want an error naming %s", bad, err, path)
		}
	}
}

func TestMetricsInputBuildsSpansAndValues(t *testing.T) {
	in, err := load(write(t, "m.json", metricsJSON))
	if err != nil {
		t.Fatal(err)
	}
	if agg := in.spans["core.spectral_bound"]; agg.count != 5 || agg.totalNS != 1000000 {
		t.Errorf("span agg = %+v", agg)
	}
	for key, want := range map[string]float64{
		"hist:core.boundk_ns.p50":               180,
		"timer:span.core.spectral_bound.avg_ns": 200000,
		"counter:linalg.matvecs":                1200,
		"gauge:wall_seconds":                    2.5,
	} {
		if v, ok := in.values[key]; !ok || v != want {
			t.Errorf("%s = %g (present %v), want %g", key, v, ok, want)
		}
	}
}

func TestTraceInputAggregatesEvents(t *testing.T) {
	in, err := load(write(t, "t.json", traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if agg := in.spans["core.spectral_bound"]; agg.count != 1 || agg.totalNS != 1000000 {
		t.Errorf("trace span agg = %+v", agg)
	}
}

func TestBuildTreeSelfTime(t *testing.T) {
	root := buildTree(map[string]spanAgg{
		"a":   {count: 1, totalNS: 100},
		"a/b": {count: 2, totalNS: 60},
		"a/c": {count: 1, totalNS: 30},
	})
	a := root.children["a"]
	if a == nil {
		t.Fatal("node a missing")
	}
	if self := a.selfNS(); self != 10 {
		t.Errorf("a self = %d, want 10", self)
	}
	if b := a.children["b"]; b == nil || b.selfNS() != 60 {
		t.Errorf("leaf self wrong: %+v", b)
	}
	kids := a.childrenByTotal()
	if len(kids) != 2 || kids[0].name != "b" {
		t.Errorf("children not sorted by total: %+v", kids)
	}
}

func TestReportRendersAllSections(t *testing.T) {
	in, err := load(write(t, "m.json", metricsJSON))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := report(&b, in, 10); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"phase tree", "core.spectral_bound", "eigensolve",
		"counters", "linalg.matvecs", "gauges", "wall_seconds",
		"histograms", "core.boundk_ns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCompareReportsDeltas(t *testing.T) {
	old, err := load(write(t, "old.json", metricsJSON))
	if err != nil {
		t.Fatal(err)
	}
	newJSON := strings.NewReplacer(
		`"linalg.matvecs": 1200`, `"linalg.matvecs": 1800`,
		`"avg_ns": 200000`, `"avg_ns": 250000`,
	).Replace(metricsJSON)
	cur, err := load(write(t, "new.json", newJSON))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := compare(&b, old, cur); err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 {
			rows[f[0]] = f[1:]
		}
	}
	for key, want := range map[string][]string{
		"counter:linalg.matvecs":                {"1200", "1800", "+50.0%"},
		"counter:mincut.flows":                  {"40", "40", "+0.0%"},
		"timer:span.core.spectral_bound.avg_ns": {"200µs", "250µs", "+25.0%"},
		"hist:core.boundk_ns.p50":               {"180ns", "180ns", "+0.0%"},
	} {
		if got := rows[key]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s row = %q, want %q\n%s", key, got, want, b.String())
		}
	}
	if !strings.Contains(b.String(), "(6 common metrics)") {
		t.Errorf("header does not count 6 common metrics:\n%s", b.String())
	}
}

func TestCompareDisjointInputsErrors(t *testing.T) {
	a, err := load(write(t, "a.json", metricsJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := load(write(t, "b.json", traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compare(&out, a, b); err == nil {
		t.Error("expected an error for inputs with no common metrics")
	}
}
