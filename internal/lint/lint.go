package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// A Rule inspects one package at a time and reports findings through the
// Reporter. Rules must be stateless across packages (a Runner may reuse
// them) and must tolerate partially type-checked packages: when a
// types.Info lookup misses, skip the node rather than guessing.
type Rule interface {
	Name() string // stable identifier used in directives and output
	Doc() string  // one-line description for the rule catalog
	Check(p *Package, report Reporter)
}

// Reporter records one finding at pos. The position should be the first
// line of the offending statement so a whole-line //lint:ignore directive
// placed above it matches.
type Reporter func(pos token.Pos, format string, args ...any)

// Diagnostic is one finding, positioned and attributed to a rule. Every
// finding fails the lint gate.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// Names of the two meta rules the runner itself emits. They cannot be
// suppressed with //lint:ignore — a broken directive must be fixed, not
// silenced.
const (
	DirectiveRule  = "directive"
	UnusedSuppRule = "unused-suppression"
)

// DefaultRules returns the full shipped rule set in catalog order.
func DefaultRules() []Rule {
	return []Rule{
		NewPersistWrites(),
		NewCtxLoop(),
		NewFloatEq(),
		NewNoPanic(),
		NewTimeNow(),
		NewMetricName(),
		NewErrCheck(),
		NewScopedObs(),
		NewCtxFlow(),
		NewGoroutineJoin(),
		NewLockBlocking(),
		NewWalOrder(),
	}
}

// Runner loads packages and applies a rule set plus the directive layer.
type Runner struct {
	Loader *Loader
	Rules  []Rule
}

// Run lints the packages matched by patterns and returns the surviving
// diagnostics (suppressions applied, directive problems appended) sorted by
// position. A non-empty return means the lint gate fails.
func (r *Runner) Run(patterns ...string) ([]Diagnostic, error) {
	dirs, err := r.Loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	// Load every unit first: the interprocedural program must span the
	// whole run before any rule fires, or cross-package facts (CHA targets,
	// transitive blocking) would be missing.
	var units []*Package
	for _, dir := range dirs {
		path, err := r.Loader.PathFor(dir)
		if err != nil {
			return nil, err
		}
		pkgs, err := r.Loader.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		units = append(units, pkgs...)
	}
	prog := NewProgram(units)
	var all []Diagnostic
	for _, p := range units {
		p.Prog = prog
		all = append(all, r.RunPackage(p)...)
	}
	sortDiagnostics(all)
	return all, nil
}

// RunPackage applies every rule to one loaded package and resolves
// suppression directives within it. Directive validation accepts any rule
// of the full shipped catalog, not just the active set, so running a rule
// subset (-rules) does not turn the other rules' suppressions into
// "unknown rule" findings; a directive for a known-but-inactive rule is
// simply inert.
func (r *Runner) RunPackage(p *Package) []Diagnostic {
	known := make(map[string]bool, len(r.Rules))
	var raw []Diagnostic
	for _, rule := range r.Rules {
		rule := rule
		known[rule.Name()] = true
		report := func(pos token.Pos, format string, args ...any) {
			position := p.Fset.Position(pos)
			raw = append(raw, Diagnostic{
				Rule:    rule.Name(),
				File:    position.Filename,
				Line:    position.Line,
				Col:     position.Column,
				Message: fmt.Sprintf(format, args...),
			})
		}
		rule.Check(p, report)
	}
	catalog := make(map[string]bool, len(known))
	for name := range known {
		catalog[name] = true
	}
	for _, rule := range DefaultRules() {
		catalog[rule.Name()] = true
	}
	return applyDirectives(p, raw, known, catalog)
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// WriteText renders diagnostics one per line in file:line:col form.
func WriteText(w io.Writer, ds []Diagnostic) error {
	for _, d := range ds {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders diagnostics as a JSON array.
func WriteJSON(w io.Writer, ds []Diagnostic) error {
	if ds == nil {
		ds = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ds)
}

// --- shared rule helpers ---

// isTestPos reports whether pos lies in a _test.go file.
func isTestPos(p *Package, pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pathExempt reports whether the package import path is covered by any of
// the exempt paths (exact match or subtree). The "_test" suffix a Loader
// appends to external test packages is ignored, so exempting a package
// exempts its external tests too.
func pathExempt(path string, exempt []string) bool {
	base := strings.TrimSuffix(path, "_test")
	for _, e := range exempt {
		if path == e || base == e || strings.HasPrefix(path, e+"/") {
			return true
		}
	}
	return false
}

// useOf resolves the object an identifier or selector refers to, or nil.
func useOf(p *Package, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// isPkgFunc reports whether e refers to the named function of the package
// with import path pkgPath.
func isPkgFunc(p *Package, e ast.Expr, pkgPath string, names map[string]bool) (string, bool) {
	obj := useOf(p, e)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if obj.Pkg().Path() == pkgPath && names[obj.Name()] {
		return obj.Name(), true
	}
	return "", false
}
