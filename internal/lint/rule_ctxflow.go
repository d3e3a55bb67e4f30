package lint

// ctx-flow: a function that accepts a context.Context must forward it to
// every callee that accepts one — dropping the ctx on the floor severs the
// cancellation chain the rest of the repo relies on. Separately,
// context.Background() and context.TODO() outside package main and tests
// are findings: a library function that mints its own root context is
// exactly a dropped ctx in disguise.

import (
	"go/ast"
	"go/types"
)

// CtxFlow is the ctx-flow rule; it needs the interprocedural program.
type CtxFlow struct{}

// NewCtxFlow returns the rule with defaults.
func NewCtxFlow() *CtxFlow { return &CtxFlow{} }

// Name implements Rule.
func (r *CtxFlow) Name() string { return "ctx-flow" }

// Doc implements Rule.
func (r *CtxFlow) Doc() string {
	return "ctx-accepting functions must forward their ctx to ctx-accepting callees; no context.Background/TODO outside main and tests"
}

// Check implements Rule.
func (r *CtxFlow) Check(p *Package, report Reporter) {
	if p.Prog == nil {
		return
	}
	for _, n := range p.Prog.NodesOf(p) {
		if !n.Summary.CtxInScope {
			continue
		}
		for _, e := range n.Edges {
			// Go edges belong to goroutine-join; pass edges are not calls.
			if e.Kind != EdgeCall && e.Kind != EdgeDefer {
				continue
			}
			if e.PassesCtx || isTestPos(p, e.Pos) {
				continue
			}
			if !calleeAcceptsCtx(e) {
				continue
			}
			report(e.Pos, "%s has a context in scope but calls %s without forwarding it",
				n.Name(), edgeCalleeName(e))
		}
	}
	r.checkRoots(p, report)
}

// calleeAcceptsCtx reports whether the resolved callee of e takes a
// context.Context parameter.
func calleeAcceptsCtx(e *CallEdge) bool {
	if e.Callee != nil {
		return e.Callee.Summary.AcceptsCtx
	}
	if e.Fn != nil {
		if sig, ok := e.Fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				if isContextType(sig.Params().At(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

func edgeCalleeName(e *CallEdge) string {
	if e.Callee != nil {
		return e.Callee.Name()
	}
	if e.Fn != nil {
		return shortFuncName(funcID(e.Fn))
	}
	return "a function value"
}

// checkRoots flags context.Background()/TODO() in library code. Package
// main and test files may mint roots.
func (r *CtxFlow) checkRoots(p *Package, report Reporter) {
	if p.Types != nil && p.Types.Name() == "main" {
		return
	}
	rootFns := map[string]bool{"Background": true, "TODO": true}
	for _, f := range p.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := isPkgFunc(p, call.Fun, "context", rootFns)
			if !ok {
				return true
			}
			pos := call.Pos()
			if isTestPos(p, pos) {
				return true
			}
			report(pos, "context.%s() in library code severs the cancellation chain; thread a ctx from the caller instead", name)
			return true
		})
	}
}
