package lint

import (
	"go/ast"
)

// ScopedObs keeps per-task telemetry attribution sound. obs exports no
// unscoped emitter: every metric, span, probe event and log line goes
// through a Scope method or a ctx-aware helper (AddCtx, StartSpanCtx,
// IterCtx, LogCtx, ...), and a nil *Scope stands for the process itself.
// The one way left around attribution is obs.Default(), the raw
// process-wide registry; library code holding it can never be re-scoped,
// so only the obs package itself and package main may call it.
// _test.go files are exempt everywhere: tests may pin the registry they
// assert against.
type ScopedObs struct {
	// ObsPath is the import path of the telemetry package.
	ObsPath string
}

// NewScopedObs returns the rule bound to graphio's obs package.
func NewScopedObs() *ScopedObs {
	return &ScopedObs{ObsPath: "graphio/internal/obs"}
}

func (*ScopedObs) Name() string { return "scoped-obs" }

func (*ScopedObs) Doc() string {
	return "only the obs package and package main may take obs.Default(), so per-task attribution stays sound"
}

// Check implements Rule.
func (r *ScopedObs) Check(p *Package, report Reporter) {
	if p.Path == r.ObsPath || (p.Types != nil && p.Types.Name() == "main") {
		return
	}
	for _, f := range p.Files {
		if isTestPos(p, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != r.ObsPath || obj.Name() != "Default" {
				return true
			}
			report(call.Pos(), "obs.Default() outside the obs package and package main; emit through a *obs.Scope or the ctx-aware helpers so the call site stays attributable")
			return true
		})
	}
}
