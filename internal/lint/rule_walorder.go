package lint

// wal-order: append-before-effect. In the packages that journal state
// transitions (the internal/jobs task table, the sweep manifest, the
// bench ledger), any function that journals a transition must write the
// WAL record before mutating the in-memory state it describes — otherwise
// a crash between the two leaves memory ahead of the journal and replay
// resurrects a state the process never acknowledged.
//
// The check is positional within one function: in a function that calls
// the persist Journal's Append — either directly or through a thin append
// helper (a callee that itself calls Append directly) — every mutation of
// receiver- or pointer-parameter-reachable state occurring before the
// first append call is a finding. The one-hop gate is deliberate: a
// deeply transitive appender (a handler whose first statement calls an
// expiry sweep that journals internally) is not itself the journaling
// site, and counting it would both mask later direct appends and flag
// unrelated bookkeeping. Functions that never append are out of scope —
// the store's memory-only transitions (scheduling, dedup indexes) are
// deliberate and have no record to order against. Local aliases are
// followed one assignment deep: `s := c.shards[k]; s.state = x` counts as
// receiver state, and so does the comma-ok form `s, ok := c.shards[k]`.
// Only receiver state and parameters of program-defined types are
// considered roots: an *http.Request is the transport's state, not
// journaled state.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WalOrder is the wal-order rule.
type WalOrder struct {
	// Packages lists the import paths under the append-before-effect
	// contract (subtrees included; external test units too).
	Packages []string
}

// NewWalOrder returns the rule scoped to the packages that call
// persist.Journal.Append.
func NewWalOrder() *WalOrder {
	return &WalOrder{Packages: []string{"graphio/internal/jobs", "graphio/internal/experiments", "graphio/cmd/benchjson"}}
}

// Name implements Rule.
func (r *WalOrder) Name() string { return "wal-order" }

// Doc implements Rule.
func (r *WalOrder) Doc() string {
	return "in WAL-backed packages, journaling functions must append before mutating the state the record describes"
}

// Check implements Rule.
func (r *WalOrder) Check(p *Package, report Reporter) {
	if p.Prog == nil || !pathExempt(p.Path, r.Packages) {
		return
	}
	for _, n := range p.Prog.NodesOf(p) {
		body := n.Body()
		if body == nil || isTestPos(p, body.Pos()) {
			continue
		}
		firstAppend := firstAppendPos(p.Prog, n)
		if !firstAppend.IsValid() {
			continue
		}
		rooted := rootedLocals(p, n)
		for obj := range paramObjects(p, n) {
			rooted[obj] = true
		}
		appendLine := p.Fset.Position(firstAppend).Line
		ownNodes(n, func(x ast.Node) bool {
			pos, target := mutationOf(p, rooted, x)
			if !pos.IsValid() || pos >= firstAppend {
				return true
			}
			report(pos, "%s mutates %s before its first WAL append (line %d); append-before-effect requires the journal record first",
				n.Name(), target, appendLine)
			return true
		})
	}
}

// firstAppendPos returns the position of the first call in n that is
// Journal.Append itself or a callee that directly calls it (an append
// helper), or NoPos. Deeper transitivity is intentionally NOT an append
// site — see the package comment.
func firstAppendPos(pr *Program, n *FuncNode) token.Pos {
	best := token.NoPos
	for _, e := range n.Edges {
		if e.Kind == EdgeGo {
			continue
		}
		if edgeAppends(pr, e) && (!best.IsValid() || e.Pos < best) {
			best = e.Pos
		}
	}
	return best
}

// edgeAppends reports whether the edge reaches Journal.Append in at most
// one hop: the call is Append itself, or the callee has its own direct
// Append edge.
func edgeAppends(pr *Program, e *CallEdge) bool {
	if e.Fn != nil && isJournalAppend(e.Fn, pr.PersistPath) {
		return true
	}
	for _, t := range edgeTargets(e) {
		if t.Decl != nil && isDeclJournalAppend(pr, t) {
			return true
		}
		for _, te := range t.Edges {
			if te.Kind != EdgeGo && te.Fn != nil && isJournalAppend(te.Fn, pr.PersistPath) {
				return true
			}
		}
	}
	return false
}

// isDeclJournalAppend reports whether a program node IS the persist
// Journal.Append (the persist package is itself a lint unit, so the call
// resolves to a node rather than an external func).
func isDeclJournalAppend(pr *Program, t *FuncNode) bool {
	if t.Decl == nil || t.Decl.Name.Name != "Append" {
		return false
	}
	base := pr.PersistPath
	path := t.Pkg.Path
	return path == base || path == base+"_test"
}

// rootedLocals finds local variables bound exactly once from
// receiver/param-reachable expressions: s := c.shards[k] makes s rooted.
func rootedLocals(p *Package, n *FuncNode) map[types.Object]bool {
	rooted := make(map[types.Object]bool)
	params := paramObjects(p, n)
	// Iterate to a small fixpoint so chains of single assignments resolve
	// (a := s.x; b := a.y).
	for pass := 0; pass < 3; pass++ {
		changed := false
		ownNodes(n, func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE {
				return true
			}
			for i, l := range as.Lhs {
				rhs := i
				if len(as.Lhs) != len(as.Rhs) {
					// v, ok := m[k]: v aliases the element. Other two-value
					// sources (calls, assertions, receives) have no base.
					if len(as.Rhs) != 1 || i != 0 {
						continue
					}
					rhs = 0
				}
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil || rooted[obj] {
					continue
				}
				if base := baseObject(p, as.Rhs[rhs]); base != nil && (params[base] || rooted[base]) {
					rooted[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return rooted
}

// paramObjects collects the receiver and the pointer/reference-typed
// parameters of program-defined types — the state whose mutation the WAL
// must dominate. Externally-typed params (*http.Request, io.Writer) are
// the caller's transport, not journaled state.
func paramObjects(p *Package, n *FuncNode) map[types.Object]bool {
	objs := make(map[types.Object]bool)
	add := func(fl *ast.FieldList, receiver bool) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := p.Info.Defs[name]
				if obj == nil {
					continue
				}
				if receiver || sharedProgramStorage(p.Prog, obj.Type()) {
					objs[obj] = true
				}
			}
		}
	}
	if n.Decl != nil {
		add(n.Decl.Recv, true)
		add(n.Decl.Type.Params, false)
	} else if n.Lit != nil {
		add(n.Lit.Type.Params, false)
	}
	return objs
}

// sharedProgramStorage reports whether mutating through t reaches state
// the caller can observe (pointer, map or slice — value params are
// copies) AND that state is of a type the linted program defines.
func sharedProgramStorage(pr *Program, t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return programNamed(pr, u.Elem())
	case *types.Map:
		return programNamed(pr, u.Elem())
	case *types.Slice:
		return programNamed(pr, u.Elem())
	}
	return false
}

// programNamed reports whether t (pointers unwrapped) is a named type
// declared in one of the lint units.
func programNamed(pr *Program, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && pr.OwnsPath(obj.Pkg().Path())
}

// baseObject unwraps selector/index/star/paren chains to the base
// identifier's object.
func baseObject(p *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return obj
			}
			return p.Info.Defs[x]
		default:
			return nil
		}
	}
}

// mutationOf reports a state mutation of rooted storage in x: an
// assignment or ++/-- through a selector/index rooted at the receiver, a
// pointer param, or a rooted local; delete() on a rooted map; and
// container/heap operations on rooted storage.
func mutationOf(p *Package, rooted map[types.Object]bool, x ast.Node) (token.Pos, string) {
	isRooted := func(e ast.Expr) bool {
		// A bare identifier is a local rebind, not state; require at least
		// one selector/index hop.
		switch unparen(e).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		default:
			return false
		}
		base := baseObject(p, e)
		return base != nil && rooted[base]
	}
	switch st := x.(type) {
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			if isRooted(l) {
				return st.Pos(), exprText(l)
			}
		}
	case *ast.IncDecStmt:
		if isRooted(st.X) {
			return st.Pos(), exprText(st.X)
		}
	case *ast.CallExpr:
		fun := unparen(st.Fun)
		if id, ok := fun.(*ast.Ident); ok {
			if b, isB := p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "delete" && len(st.Args) > 0 {
				if isRooted(st.Args[0]) {
					return st.Pos(), exprText(st.Args[0])
				}
			}
		}
		// container/heap mutations: heap.Push(&s.queue, x), heap.Pop(&s.queue).
		if name, ok := isPkgFunc(p, fun, "container/heap", map[string]bool{"Push": true, "Pop": true, "Remove": true, "Fix": true}); ok && len(st.Args) > 0 {
			arg := unparen(st.Args[0])
			if u, isU := arg.(*ast.UnaryExpr); isU && u.Op == token.AND {
				arg = u.X
			}
			if isRooted(arg) {
				return st.Pos(), "heap." + name + "(" + exprText(arg) + ")"
			}
		}
	}
	return token.NoPos, ""
}
