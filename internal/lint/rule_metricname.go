package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MetricName keeps the obs metric namespace statically enumerable: every
// counter/gauge/timer/histogram/probe name handed to internal/obs must be a
// compile-time string constant matching the pkg.name_unit convention
// (lowercase package prefix, dot-separated lowercase_snake segments, e.g.
// "linalg.matvec_ns" or "core.fallback.total"). cmd/obsreport and the
// Prometheus /metrics endpoint rely on being able to list every metric the
// binary can emit by reading the source. Constant expressions fold —
// "core." + "fallback" is fine; a name built from a runtime variable is
// not, with one carve-out: a dynamic name whose constant leading prefix is
// a declared bounded family ("core.fallback." + kind) is accepted, because
// the family's members are a small closed set enumerable from the
// declaring package (fallback kinds, job terminal states).
// The obs package itself and _test.go files are exempt.
type MetricName struct {
	// ObsPath is the import path of the metrics package.
	ObsPath string
	// Pattern is the convention names must match.
	Pattern *regexp.Regexp
	// Families lists the bounded-family prefixes (each ending in ".")
	// under which a dynamic suffix is allowed. Keep this list short and
	// each family's member set closed: every entry is namespace the
	// obsreport enumeration cannot see through.
	Families []string
}

// MetricNamePattern is the pkg.name_unit convention: at least two
// dot-separated segments, leading lowercase package segment, snake_case
// tails.
var MetricNamePattern = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z0-9_]+)+$`)

// MetricFamilies are the repo's declared bounded families: dynamic metric
// names are legal only under these prefixes. Members are closed sets —
// escalation fallback kinds (core/core.go), the experiments runner
// registry (experiments/runall.go), and graphiod's job failure kinds
// (graphiod/job.go).
var MetricFamilies = []string{
	"core.fallback.",
	"experiments.",
	"serve.fail.",
	"serve.jobs.",
}

// NewMetricName returns the rule bound to graphio/internal/obs.
func NewMetricName() *MetricName {
	return &MetricName{ObsPath: "graphio/internal/obs", Pattern: MetricNamePattern, Families: MetricFamilies}
}

func (*MetricName) Name() string { return "metric-name" }

func (*MetricName) Doc() string {
	return "obs metric names are compile-time constants matching pkg.name_unit so obsreport can enumerate them"
}

// metricFuncs are the obs entry points that take a metric name, mapped to
// the argument index the name sits at: 0 for the Registry/Scope methods,
// 1 for the context-scoped helpers whose first argument is the ctx. Span
// and log names (StartSpanCtx, LogCtx) are free-form and excluded. Probe
// names share the namespace — obsreport convergence groups events by
// probe — so obs.Probe is included; ProbeRef.IterCtx is not, its leading
// arguments being a ctx and an iteration number.
var metricFuncs = map[string]int{
	"Add": 0, "Inc": 0, "Counter": 0,
	"SetGauge": 0, "Gauge": 0,
	"Observe": 0, "Time": 0,
	"ObserveHist": 0, "ObserveHistDuration": 0, "TimeHist": 0, "Hist": 0,
	"Probe":  0,
	"AddCtx": 1, "IncCtx": 1, "SetGaugeCtx": 1,
	"ObserveCtx": 1, "TimeCtx": 1,
	"ObserveHistCtx": 1, "ObserveHistDurationCtx": 1, "TimeHistCtx": 1,
}

// Check implements Rule.
func (r *MetricName) Check(p *Package, report Reporter) {
	if pathExempt(p.Path, []string{r.ObsPath}) {
		return
	}
	for _, f := range p.Files {
		if isTestPos(p, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name, idx, ok := r.metricCall(p, call)
			if !ok || idx >= len(call.Args) {
				return true
			}
			tv, ok := p.Info.Types[call.Args[idx]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				if prefix, ok := r.constPrefix(p, call.Args[idx]); ok && r.family(prefix) {
					return true // dynamic suffix under a declared bounded family
				}
				report(call.Pos(), "obs.%s metric name must be a compile-time string constant (or a declared bounded family prefix + suffix) so cmd/obsreport can enumerate it", name)
				return true
			}
			metric := constant.StringVal(tv.Value)
			if !r.Pattern.MatchString(metric) {
				report(call.Pos(), "metric name %q does not match the pkg.name_unit convention (%s)", metric, r.Pattern)
			}
			return true
		})
	}
}

// constPrefix returns the longest constant-folded leading prefix of a
// string concatenation: for `"serve.fail." + kind` it folds the left
// operand; a fully constant expression never reaches here (the caller
// already accepted it).
func (r *MetricName) constPrefix(p *Package, e ast.Expr) (string, bool) {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.ADD {
		return r.constPrefix(p, be.X)
	}
	return "", false
}

// family reports whether prefix exactly names a declared bounded family.
// Exact match, not HasPrefix: "serve.fail" + kind would silently merge two
// namespaces, and "serve.fail.x." + kind would hide a new family.
func (r *MetricName) family(prefix string) bool {
	for _, f := range r.Families {
		if prefix == f && strings.HasSuffix(f, ".") {
			return true
		}
	}
	return false
}

// metricCall reports whether call targets an obs metric entry point —
// either a package-level function of ObsPath or a method on its Registry
// or Scope — and returns the function name plus the metric-name argument
// index.
func (r *MetricName) metricCall(p *Package, call *ast.CallExpr) (string, int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		return "", 0, false
	}
	idx, known := metricFuncs[obj.Name()]
	if !known {
		return "", 0, false
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == r.ObsPath {
		// Methods never take a ctx, so the name is always the receiver-side
		// first argument even when the package-level helper of the same base
		// name would look further in.
		if _, isMethod := p.Info.Selections[sel]; isMethod {
			idx = 0
		}
		return obj.Name(), idx, true
	}
	// Method on a Registry or Scope value obtained from obs (e.g.
	// obs.Default().Inc): the selection's receiver type lives in ObsPath.
	if s, ok := p.Info.Selections[sel]; ok {
		t := s.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			o := named.Obj()
			if o != nil && o.Pkg() != nil && o.Pkg().Path() == r.ObsPath {
				return obj.Name(), 0, true
			}
		}
	}
	return "", 0, false
}
