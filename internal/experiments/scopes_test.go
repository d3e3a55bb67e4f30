package experiments

// Acceptance coverage for the scoped-telemetry tentpole: a two-experiment
// sweep must yield per-experiment metric sections whose counters sum to
// the process totals, the /tasks endpoint must list the sweep and the
// in-flight experiment scope while an experiment is running, and the
// manifest must tie each experiment record to its scope.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphio/internal/obs"
)

func TestSweepScopedTelemetry(t *testing.T) {
	obs.Reset()
	obs.ResetScopes()
	obs.Enable(true)
	t.Cleanup(func() {
		obs.Enable(false)
		obs.ResetScopes()
		obs.Reset()
	})
	stop, addr, err := obs.StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	emit := func(name string, n int) Runner {
		return Runner{Name: name, Run: func(ctx context.Context, cfg Config) (*Table, error) {
			for i := 0; i < n; i++ {
				obs.IncCtx(ctx, "scopetest.work.total")
			}
			return stubTable(name), nil
		}}
	}
	var tasksBody string
	runners := []Runner{
		emit("alpha", 3),
		{Name: "beta", Run: func(ctx context.Context, cfg Config) (*Table, error) {
			for i := 0; i < 5; i++ {
				obs.IncCtx(ctx, "scopetest.work.total")
			}
			// Mid-experiment, /tasks must list the live sweep scope and this
			// experiment's child scope.
			resp, err := http.Get("http://" + addr + "/tasks")
			if err != nil {
				return nil, err
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			tasksBody = string(b)
			return stubTable("beta"), nil
		}},
	}
	dir := t.TempDir()
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, dir, nil, &log, runners); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}

	for _, wantPath := range []string{`"path": "sweep"`, `"path": "sweep/beta"`} {
		if !strings.Contains(tasksBody, wantPath) {
			t.Errorf("/tasks mid-run is missing %s:\n%s", wantPath, tasksBody)
		}
	}
	if strings.Contains(tasksBody, `"path": "sweep/alpha"`) {
		t.Errorf("/tasks mid-run still lists the completed alpha scope:\n%s", tasksBody)
	}

	// The metrics dump decomposes the process totals per scope.
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump obs.Dump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("metrics dump not parseable: %v", err)
	}
	byPath := map[string]obs.ScopeSection{}
	for _, sec := range dump.Scopes {
		byPath[sec.Path] = sec
	}
	alpha, ok := byPath["sweep/alpha"]
	if !ok {
		t.Fatalf("dump has no sweep/alpha section; scopes: %v", paths(dump.Scopes))
	}
	beta := byPath["sweep/beta"]
	sweep := byPath["sweep"]
	if got := alpha.Metrics.Counters["scopetest.work.total"]; got != 3 {
		t.Errorf("alpha section scopetest.work.total = %d, want 3", got)
	}
	if got := beta.Metrics.Counters["scopetest.work.total"]; got != 5 {
		t.Errorf("beta section scopetest.work.total = %d, want 5", got)
	}
	if got := sweep.Metrics.Counters["scopetest.work.total"]; got != 8 {
		t.Errorf("sweep section scopetest.work.total = %d, want the per-experiment sum 8", got)
	}
	perScopeSum := alpha.Metrics.Counters["scopetest.work.total"] + beta.Metrics.Counters["scopetest.work.total"]
	if total := dump.Counters["scopetest.work.total"]; total != perScopeSum {
		t.Errorf("process total = %d, want per-experiment sum %d", total, perScopeSum)
	}

	// The manifest ties each experiment record to its scope and snapshot.
	man, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []obs.ScopeSection{alpha, beta} {
		if !strings.Contains(string(man), `"scope_id":"`+sec.ID+`"`) {
			t.Errorf("manifest has no record with scope_id %s (%s)", sec.ID, sec.Path)
		}
	}
	if !strings.Contains(string(man), `"metrics_sha256":"`) {
		t.Error("manifest records carry no metrics digest")
	}
}

func paths(secs []obs.ScopeSection) []string {
	out := make([]string, len(secs))
	for i, s := range secs {
		out[i] = s.Path
	}
	return out
}

// A sweep solves each (graph, Laplacian, h, solver) once: every
// core.spectrum span is a memo miss, except fig11's, which time their
// solves and so bypass the memo.
func TestSweepSolvesEachSpectrumOnce(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	sc := obs.NewScope(t.Name())
	defer sc.Close()
	cfg := QuickConfig()
	if _, err := RunAll(obs.WithScope(context.Background(), sc), cfg, "", nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	snap := sc.Registry().Snapshot()
	solves := snap.Timers["span.core.spectrum"].Count
	hits, misses := snap.Counters["core.memo.hits"], snap.Counters["core.memo.misses"]
	fig11 := int64(len(cfg.BHKCities))
	if solves != misses+fig11 {
		t.Errorf("%d core.spectrum spans, want %d misses + %d fig11 solves", solves, misses, fig11)
	}
	// Without the memo this sweep solved 86 spectra.
	if hits == 0 || solves >= 86 {
		t.Errorf("sweep solved %d spectra with %d memo hits, want fewer than 86 solves", solves, hits)
	}
}
