package lint

// Minimal SARIF 2.1.0 writer, stdlib-only. The output targets code-scanning
// uploads (one run, one tool, physical locations with region start lines)
// and round-trips the rule catalog so viewers show each rule's doc line.

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
	sarifTool    = "graphiolint"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTooling  `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTooling struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// RuleInfo names one catalog entry for SARIF's rule metadata.
type RuleInfo struct {
	Name string
	Doc  string
}

// CatalogInfo renders a rule set (plus the two meta rules) as RuleInfo.
func CatalogInfo(rules []Rule) []RuleInfo {
	infos := make([]RuleInfo, 0, len(rules)+2)
	for _, r := range rules {
		infos = append(infos, RuleInfo{Name: r.Name(), Doc: r.Doc()})
	}
	infos = append(infos,
		RuleInfo{Name: DirectiveRule, Doc: "meta: malformed or unknown-rule //lint:ignore directives"},
		RuleInfo{Name: UnusedSuppRule, Doc: "meta: //lint:ignore directives that suppress nothing"},
	)
	return infos
}

// WriteSARIF renders diagnostics as a single-run SARIF 2.1.0 log. File
// paths are made module-root-relative (URI-friendly) via root; every
// result is at level "error", since every finding fails the gate.
func WriteSARIF(w io.Writer, root string, catalog []RuleInfo, ds []Diagnostic) error {
	rules := make([]sarifRule, 0, len(catalog))
	for _, ri := range catalog {
		rules = append(rules, sarifRule{ID: ri.Name, ShortDescription: sarifText{Text: ri.Doc}})
	}
	results := make([]sarifResult, 0, len(ds))
	for _, d := range ds {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relPath(root, d.File)},
				Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
			}}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTooling{Driver: sarifDriver{Name: sarifTool, Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath maps an absolute diagnostic path to the module-relative,
// slash-separated form SARIF viewers resolve against the checkout; paths
// outside root pass through unchanged.
func relPath(root, file string) string {
	if root == "" {
		return filepath.ToSlash(file)
	}
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}
