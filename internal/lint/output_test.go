package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func sampleDiagnostics() []Diagnostic {
	return []Diagnostic{
		{Rule: "ctx-flow", File: "/mod/internal/a/a.go", Line: 10, Col: 2,
			Message: "run has a context in scope but calls step without forwarding it"},
		{Rule: "lock-blocking", File: "/mod/internal/b/b.go", Line: 42, Col: 5,
			Message: "flush may block while holding s.mu (locked at line 40): calls Sleep (time.Sleep)"},
	}
}

// TestWriteSARIFGolden pins the exact SARIF 2.1.0 bytes: code-scanning
// uploads parse this shape, so drift is a compatibility break, not a
// formatting choice. Regenerate deliberately with -update.
func TestWriteSARIFGolden(t *testing.T) {
	catalog := []RuleInfo{
		{Name: "ctx-flow", Doc: "context.Context must flow through the call graph, not be re-minted"},
		{Name: "lock-blocking", Doc: "no blocking calls while holding a mutex"},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/mod", catalog, sampleDiagnostics()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "sarif.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		//lint:ignore persist-writes golden regeneration is a developer action, not runtime persistence
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestCatalogInfoAppendsMetaRules(t *testing.T) {
	infos := CatalogInfo([]Rule{NewCtxFlow()})
	if len(infos) != 3 {
		t.Fatalf("CatalogInfo = %d entries, want rule + 2 meta rules", len(infos))
	}
	if infos[0].Name != "ctx-flow" || infos[1].Name != DirectiveRule || infos[2].Name != UnusedSuppRule {
		t.Errorf("catalog order = %v", infos)
	}
}
