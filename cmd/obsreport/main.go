// Command obsreport turns graphio telemetry files into run reports. It
// reads the two JSON shapes the toolchain emits, auto-detected by content:
//
//   - metrics snapshots written by -metrics-out (counters/gauges/timers/hists)
//   - Chrome trace-event files written by -trace-out
//
// One file renders a report: the span phase tree with total/self wall time,
// the top counters, gauges, and histogram quantiles. Two files render
// per-metric deltas instead.
//
//	obsreport run.json
//	obsreport run.trace.json
//	obsreport old.json new.json
//
// A subcommand covers the solver event log:
//
//	obsreport convergence run.events.jsonl          per-iteration solver event report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"graphio/internal/linalg"
	"graphio/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "convergence" {
		os.Exit(convergenceMain(os.Args[2:]))
	}
	top := flag.Int("top", 10, "how many counters to show in one-file reports")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-top N] FILE [FILE2]\n       obsreport convergence [...] EVENTS.jsonl")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	var err error
	switch len(args) {
	case 1:
		var in *input
		if in, err = load(args[0]); err == nil {
			err = report(os.Stdout, in, *top)
		}
	case 2:
		var a, b *input
		if a, err = load(args[0]); err == nil {
			if b, err = load(args[1]); err == nil {
				err = compare(os.Stdout, a, b)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
}

// spanAgg is one span name's aggregate across a run.
type spanAgg struct {
	count   int64
	totalNS int64
}

// input is one loaded telemetry file, normalized across the two formats.
type input struct {
	path   string
	kind   string             // "metrics", "trace"
	snap   *obs.Snapshot      // kind == "metrics"
	scopes []obs.ScopeSection // kind == "metrics", scoped sweeps only
	spans  map[string]spanAgg // phase tree input ("a/b/c" paths)
	values map[string]float64 // flattened metric keys to comparable numbers
}

// chromeEvent is the subset of a trace-event entry obsreport consumes.
// ts/dur are microseconds per the Chrome trace-event spec.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Dur  float64 `json:"dur"`
}

// load reads path and detects its format by shape.
func load(path string) (*input, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: not a JSON object: %w", path, err)
	}
	in := &input{path: path, spans: map[string]spanAgg{}, values: map[string]float64{}}
	if raw, ok := probe["traceEvents"]; ok {
		return in.fromTrace(raw)
	}
	if _, ok := probe["counters"]; ok {
		return in.fromSnapshot(b)
	}
	return nil, fmt.Errorf("%s: neither a metrics snapshot nor a trace-event file", path)
}

func (in *input) fromTrace(raw json.RawMessage) (*input, error) {
	in.kind = "trace"
	var events []chromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		return nil, fmt.Errorf("%s: bad traceEvents: %w", in.path, err)
	}
	for _, e := range events {
		if e.Ph != "X" || e.Name == "" {
			continue
		}
		agg := in.spans[e.Name]
		agg.count++
		agg.totalNS += int64(e.Dur * 1000)
		in.spans[e.Name] = agg
	}
	for name, agg := range in.spans {
		in.values["trace:"+name+".total_ns"] = float64(agg.totalNS)
	}
	return in, nil
}

func (in *input) fromSnapshot(b []byte) (*input, error) {
	in.kind = "metrics"
	// Dump embeds Snapshot, so this parses both the scoped shape written
	// since the per-task telemetry refactor and older plain snapshots
	// (whose scopes list simply comes back empty).
	var d obs.Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: bad metrics snapshot: %w", in.path, err)
	}
	s := d.Snapshot
	in.snap = &s
	in.scopes = d.Scopes
	for name, t := range s.Timers {
		if short, ok := strings.CutPrefix(name, "span."); ok {
			in.spans[short] = spanAgg{count: t.Count, totalNS: t.TotalNS}
		}
		in.values["timer:"+name+".avg_ns"] = float64(t.AvgNS)
	}
	for name, h := range s.Hists {
		in.values["hist:"+name+".p50"] = h.P50
	}
	for name, v := range s.Counters {
		in.values["counter:"+name] = float64(v)
	}
	for name, v := range s.Gauges {
		in.values["gauge:"+name] = v
	}
	return in, nil
}

// ----- one-file report -----

// node is one level of the span phase tree.
type node struct {
	name     string
	agg      spanAgg
	children map[string]*node
}

func buildTree(spans map[string]spanAgg) *node {
	root := &node{children: map[string]*node{}}
	for path, agg := range spans {
		cur := root
		for _, seg := range strings.Split(path, "/") {
			next := cur.children[seg]
			if next == nil {
				next = &node{name: seg, children: map[string]*node{}}
				cur.children[seg] = next
			}
			cur = next
		}
		cur.agg = agg
	}
	return root
}

func (n *node) childrenByTotal() []*node {
	kids := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].agg.totalNS != kids[j].agg.totalNS {
			return kids[i].agg.totalNS > kids[j].agg.totalNS
		}
		return kids[i].name < kids[j].name
	})
	return kids
}

// selfNS is the node's total minus its children's totals, clamped at zero
// (clock skew between parent and child stop watches can go slightly
// negative).
func (n *node) selfNS() int64 {
	self := n.agg.totalNS
	for _, c := range n.children {
		self -= c.agg.totalNS
	}
	if self < 0 {
		self = 0
	}
	return self
}

func renderTree(w *strings.Builder, n *node, depth int) {
	for _, c := range n.childrenByTotal() {
		fmt.Fprintf(w, "  %-*s%-*s total %-11s self %-11s ×%d\n",
			2*depth, "", 44-2*depth, c.name,
			fmtDur(c.agg.totalNS), fmtDur(c.selfNS()), c.agg.count)
		renderTree(w, c, depth+1)
	}
}

func fmtDur(ns int64) string {
	d := time.Duration(ns)
	if -time.Microsecond < d && d < time.Microsecond {
		return d.String() // sub-µs latencies must not round to "0s"
	}
	return d.Round(time.Microsecond).String()
}

func report(w io.Writer, in *input, top int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", in.path, in.kind)
	if len(in.spans) > 0 {
		fmt.Fprintf(&b, "\nphase tree (wall time)\n")
		renderTree(&b, buildTree(in.spans), 0)
	}
	if in.snap != nil {
		writeCounters(&b, in.snap, top)
		writeGauges(&b, in.snap)
		writeHists(&b, in.snap)
		writeScopes(&b, in.scopes)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeCounters(b *strings.Builder, s *obs.Snapshot, top int) {
	if len(s.Counters) == 0 {
		return
	}
	type kv struct {
		k string
		v int64
	}
	all := make([]kv, 0, len(s.Counters))
	for k, v := range s.Counters {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if top > 0 && len(all) > top {
		all = all[:top]
	}
	fmt.Fprintf(b, "\ncounters (top %d by value)\n", len(all))
	for _, e := range all {
		fmt.Fprintf(b, "  %-44s %d\n", e.k, e.v)
	}
}

func writeGauges(b *strings.Builder, s *obs.Snapshot) {
	if len(s.Gauges) == 0 {
		return
	}
	names := sortedKeys(s.Gauges)
	fmt.Fprintf(b, "\ngauges\n")
	for _, k := range names {
		fmt.Fprintf(b, "  %-44s %g\n", k, s.Gauges[k])
	}
}

func writeHists(b *strings.Builder, s *obs.Snapshot) {
	if len(s.Hists) == 0 {
		return
	}
	names := sortedKeys(s.Hists)
	fmt.Fprintf(b, "\nhistograms\n")
	fmt.Fprintf(b, "  %-44s %9s %11s %11s %11s %11s %11s\n", "name", "count", "mean", "p50", "p90", "p99", "max")
	for _, k := range names {
		h := s.Hists[k]
		if strings.HasSuffix(k, "_ns") {
			fmt.Fprintf(b, "  %-44s %9d %11s %11s %11s %11s %11s\n", k, h.Count,
				fmtDur(int64(h.Mean)), fmtDur(int64(h.P50)), fmtDur(int64(h.P90)), fmtDur(int64(h.P99)), fmtDur(h.Max))
		} else {
			fmt.Fprintf(b, "  %-44s %9d %11.1f %11.1f %11.1f %11.1f %11d\n", k, h.Count,
				h.Mean, h.P50, h.P90, h.P99, h.Max)
		}
	}
}

// writeScopes renders the per-task sections of a scoped metrics dump: one
// line per scope (sweep, experiment, test, ...) with its wall time, event
// count, and largest counters. The section values are a decomposition of
// the process-wide numbers above, not additions to them.
func writeScopes(b *strings.Builder, scopes []obs.ScopeSection) {
	if len(scopes) == 0 {
		return
	}
	fmt.Fprintf(b, "\nscopes (per-task decomposition)\n")
	for _, sc := range scopes {
		fmt.Fprintf(b, "  %-8s %-34s wall %-11s events %d\n",
			sc.ID, sc.Path, fmtDur(sc.WallNS), sc.Events)
		type kv struct {
			k string
			v int64
		}
		top := make([]kv, 0, len(sc.Metrics.Counters))
		for k, v := range sc.Metrics.Counters {
			top = append(top, kv{k, v})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].v != top[j].v {
				return top[i].v > top[j].v
			}
			return top[i].k < top[j].k
		})
		if len(top) > 5 {
			top = top[:5]
		}
		for _, e := range top {
			fmt.Fprintf(b, "    %-42s %d\n", e.k, e.v)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ----- two-file comparison -----

// compare prints per-metric deltas for keys present in both inputs.
func compare(w io.Writer, a, b *input) error {
	common := make([]string, 0, len(a.values))
	for k := range a.values {
		if _, ok := b.values[k]; ok {
			common = append(common, k)
		}
	}
	sort.Strings(common)
	if len(common) == 0 {
		return fmt.Errorf("no common metrics between %s and %s", a.path, b.path)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%s → %s (%d common metrics)\n", a.path, b.path, len(common))
	fmt.Fprintf(&out, "%-58s %14s %14s %9s\n", "metric", "old", "new", "delta")
	for _, k := range common {
		ov, nv := a.values[k], b.values[k]
		ds := "n/a"
		if delta, has := deltaPct(ov, nv); has {
			ds = fmt.Sprintf("%+.1f%%", delta)
		}
		fmt.Fprintf(&out, "%-58s %14s %14s %9s\n", k, fmtValue(k, ov), fmtValue(k, nv), ds)
	}
	onlyA, onlyB := 0, 0
	for k := range a.values {
		if _, ok := b.values[k]; !ok {
			onlyA++
		}
	}
	for k := range b.values {
		if _, ok := a.values[k]; !ok {
			onlyB++
		}
	}
	if onlyA+onlyB > 0 {
		fmt.Fprintf(&out, "(%d metrics only in %s, %d only in %s)\n", onlyA, a.path, onlyB, b.path)
	}
	_, err := io.WriteString(w, out.String())
	return err
}

func deltaPct(old, new float64) (float64, bool) {
	if linalg.EqZero(old) {
		return 0, linalg.EqZero(new)
	}
	return (new - old) / old * 100, true
}

// fmtValue renders nanosecond-unit metrics as durations and everything
// else as plain numbers.
func fmtValue(key string, v float64) string {
	if strings.HasSuffix(key, "_ns") || strings.Contains(key, "_ns.") {
		return fmtDur(int64(v))
	}
	return fmt.Sprintf("%g", v)
}
