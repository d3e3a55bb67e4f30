package lint

import (
	"go/token"
	"strings"
)

// directivePrefix is the suppression comment form:
//
//	//lint:ignore <rule> <reason>
//
// A trailing directive suppresses matching diagnostics on its own line; a
// whole-line directive suppresses them on the next source line that holds
// code. The reason is mandatory and the rule must exist in the active set.
const directivePrefix = "//lint:ignore"

type directive struct {
	rule   string
	reason string
	file   string
	line   int // line the comment starts on
	col    int
	target int // line whose diagnostics it suppresses
	used   bool
}

// applyDirectives filters raw diagnostics through the //lint:ignore
// directives of the package and appends the meta diagnostics: malformed or
// unknown-rule directives (rule "directive") and directives that suppressed
// nothing (rule "unused-suppression"). active holds the rules that ran;
// catalog holds every name a directive may legally reference. A directive
// for a cataloged rule that is not active is inert: it suppresses nothing
// and is not reported as unused (its rule never got the chance to fire).
func applyDirectives(p *Package, raw []Diagnostic, active, catalog map[string]bool) []Diagnostic {
	var out []Diagnostic
	var dirs []*directive
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		lines := p.Src[filename]
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Slash)
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignoreXY — not the directive
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					out = append(out, metaDiag(pos, DirectiveRule,
						"malformed directive: want //lint:ignore <rule> <reason>"))
					continue
				}
				rule := fields[0]
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), rule))
				if reason == "" {
					out = append(out, metaDiag(pos, DirectiveRule,
						"//lint:ignore "+rule+" needs a reason: //lint:ignore <rule> <reason>"))
					continue
				}
				if rule == DirectiveRule || rule == UnusedSuppRule || !catalog[rule] {
					out = append(out, metaDiag(pos, DirectiveRule,
						"//lint:ignore names unknown rule \""+rule+"\""))
					continue
				}
				if !active[rule] {
					continue
				}
				dirs = append(dirs, &directive{
					rule:   rule,
					reason: reason,
					file:   pos.Filename,
					line:   pos.Line,
					col:    pos.Column,
					target: directiveTarget(lines, pos),
				})
			}
		}
	}
	for _, d := range raw {
		suppressed := false
		for _, dir := range dirs {
			if dir.rule == d.Rule && dir.file == d.File && dir.target == d.Line {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			out = append(out, Diagnostic{
				Rule: UnusedSuppRule,
				File: dir.file,
				Line: dir.line,
				Col:  dir.col,
				Message: "//lint:ignore " + dir.rule +
					" suppresses nothing — remove it or fix the directive",
			})
		}
	}
	return out
}

func metaDiag(pos token.Position, rule, msg string) Diagnostic {
	return Diagnostic{Rule: rule, File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: msg}
}

// directiveTarget decides which source line a directive governs: its own
// line when the comment trails code, otherwise the next line that carries
// code (blank and comment-only lines are skipped).
func directiveTarget(lines []string, pos token.Position) int {
	if pos.Line-1 < len(lines) {
		before := strings.TrimSpace(lines[pos.Line-1][:pos.Column-1])
		if before != "" {
			return pos.Line
		}
	}
	for i := pos.Line; i < len(lines); i++ { // lines[i] is source line i+1
		t := strings.TrimSpace(lines[i])
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		return i + 1
	}
	return pos.Line
}
