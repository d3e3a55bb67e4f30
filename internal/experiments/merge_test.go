package experiments

// Manifest-merge semantics for distributed sweeps: the coordinator's
// Merge must produce an outDir a single-process sweep could have written —
// byte-identical report.txt, resume-compatible manifest — while absorbing
// the distributed-only edge cases: two workers completing the same shard
// after a lease race (last-write-wins), and poisoned shards that must
// survive into the report and be re-run by a later -resume.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphio/internal/persist"
)

// csvBytes renders a table the way a worker uploads it.
func csvBytes(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Committing every shard through Merge must reproduce, byte for byte, the
// report.txt a single-process runRunners writes for the same runners.
func TestMergeReportMatchesSingleProcess(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	runners, _ := countingRunners(names...)

	refDir := t.TempDir()
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, refDir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	refReport, err := os.ReadFile(filepath.Join(refDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}

	mergeDir := t.TempDir()
	m, err := OpenMerge(context.Background(), mergeDir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Commit out of order: report order must come from the canonical list,
	// not arrival order.
	for _, name := range []string{"gamma", "alpha", "beta"} {
		tab := stubTable(name)
		if err := m.CommitResult(name, tab.Title, csvBytes(t, tab), 7, "w1"); err != nil {
			t.Fatal(err)
		}
	}
	included, err := m.FinishReport(names)
	if err != nil {
		t.Fatal(err)
	}
	if len(included) != 3 {
		t.Fatalf("included = %v, want all three shards", included)
	}
	gotReport, err := os.ReadFile(filepath.Join(mergeDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refReport, gotReport) {
		t.Errorf("merged report differs from single-process report:\n--- single\n%s--- merged\n%s", refReport, gotReport)
	}
	for _, name := range names {
		ref, err := os.ReadFile(filepath.Join(refDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(mergeDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, got) {
			t.Errorf("%s.csv differs between single-process and merged sweeps", name)
		}
	}
}

// Lease race: a worker whose lease expired still uploads after the
// reassigned worker already committed. The second commit must win — CSV on
// disk, manifest tail, and a later -resume must all agree on the last
// write, and the directory must still verify cleanly.
func TestMergeLeaseRaceLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenMerge(context.Background(), dir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	first := stubTable("alpha")
	if err := m.CommitResult("alpha", first.Title, csvBytes(t, first), 5, "w1"); err != nil {
		t.Fatal(err)
	}
	// The late upload carries different bytes (in production both computed
	// the same config hash so the bytes agree; the divergence here is what
	// makes the winner observable).
	second := &Table{Name: "alpha", Title: "stub alpha", Columns: []string{"k", "v"}}
	second.AddRow("1", "99")
	secondCSV := csvBytes(t, second)
	if err := m.CommitResult("alpha", second.Title, secondCSV, 9, "w2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FinishReport([]string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	onDisk, err := os.ReadFile(filepath.Join(dir, "alpha.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, secondCSV) {
		t.Fatalf("alpha.csv = %q, want the later upload to win", onDisk)
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "99") {
		t.Errorf("report.txt does not reflect the winning upload:\n%s", report)
	}

	// A later resume must treat the last write as the verified artifact.
	m2, err := OpenMerge(context.Background(), dir, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !m2.Reusable("alpha") {
		t.Error("winning upload does not verify on resume")
	}
}

// Poisoned shards must (a) surface explicitly in the report trailer and
// (b) survive into the manifest as non-ok records so a later -resume
// re-runs them instead of skipping or silently dropping them.
func TestMergePoisonedSurvivesResumeAndReport(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenMerge(context.Background(), dir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	good := stubTable("alpha")
	if err := m.CommitResult("alpha", good.Title, csvBytes(t, good), 5, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitPoisoned("beta", 3, errors.New("solver exploded")); err != nil {
		t.Fatal(err)
	}
	included, err := m.FinishReport([]string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if len(included) != 1 || included[0] != "alpha" {
		t.Fatalf("included = %v, want only alpha", included)
	}
	m.Close()

	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "poisoned shards") ||
		!strings.Contains(string(report), "beta: gave up after 3 attempt(s): solver exploded") {
		t.Errorf("report.txt does not name the poisoned shard:\n%s", report)
	}

	// Resume semantics: alpha verifies and skips; beta must not.
	m2, err := OpenMerge(context.Background(), dir, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !m2.Reusable("alpha") {
		t.Error("committed shard alpha does not verify on resume")
	}
	if m2.Reusable("beta") {
		t.Error("poisoned shard beta reported reusable; it must re-run")
	}

	// And the real resume path agrees: a single-process -resume over the
	// merged directory re-runs exactly the poisoned shard.
	m2.Close()
	runners, runs := countingRunners("alpha", "beta")
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{Resume: true}, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	if runs["alpha"] != 0 {
		t.Errorf("resume recomputed the verified shard alpha (%d runs)", runs["alpha"])
	}
	if runs["beta"] != 1 {
		t.Errorf("resume ran poisoned shard beta %d times, want exactly 1", runs["beta"])
	}
	assertCleanDir(t, dir)
}

// A completed-then-poisoned shard drops out of the tables (defensive: the
// coordinator never does this today, but the merge must stay coherent),
// and a commit after poisoning re-heals it.
func TestMergePoisonThenHeal(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenMerge(context.Background(), dir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CommitPoisoned("alpha", 2, errors.New("flaky")); err != nil {
		t.Fatal(err)
	}
	tab := stubTable("alpha")
	if err := m.CommitResult("alpha", tab.Title, csvBytes(t, tab), 5, "w9"); err != nil {
		t.Fatal(err)
	}
	included, err := m.FinishReport([]string{"alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if len(included) != 1 {
		t.Fatalf("included = %v, want healed alpha", included)
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(report), "poisoned") {
		t.Errorf("healed shard still listed as poisoned:\n%s", report)
	}
}

// Garbage uploads are rejected at commit time, before anything lands on
// disk.
func TestMergeRejectsGarbageCSV(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenMerge(context.Background(), dir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CommitResult("alpha", "t", []byte(`"unclosed`), 1, "w1"); err == nil {
		t.Fatal("garbage CSV accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "alpha.csv")); !os.IsNotExist(err) {
		t.Fatal("rejected upload still landed on disk")
	}
}

// noSync skips fsync, which would otherwise hold the fuzzer to a few
// hundred execs per second.
type noSync struct{ persist.File }

func (noSync) Sync() error { return nil }

// FuzzCommitResult feeds arbitrary uploads to CommitResult, the worker
// path into a sweep directory. A refused upload must leave no CSV; an
// accepted one must render a report.txt that a -resume of the directory
// reproduces byte for byte, with the shard reusable.
func FuzzCommitResult(f *testing.F) {
	stub := stubTable("alpha")
	var good bytes.Buffer
	if err := stub.WriteCSV(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(stub.Title, good.Bytes())
	f.Add("bad \xc0 title", []byte("k,v\n1,2\n"))
	f.Add("", []byte(`"unclosed`))
	f.Add("two\nlines", []byte("a\n\"x\r\ny\"\n"))
	f.Add("ragged", []byte("a,b\n1\n"))
	persist.WrapFile = func(f persist.File) persist.File { return noSync{f} }
	f.Cleanup(func() { persist.WrapFile = nil })
	f.Fuzz(func(t *testing.T, title string, data []byte) {
		dir := t.TempDir()
		m, err := OpenMerge(context.Background(), dir, Config{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CommitResult("alpha", title, data, 1, "w1"); err != nil {
			m.Close()
			if _, statErr := os.Stat(filepath.Join(dir, "alpha.csv")); !os.IsNotExist(statErr) {
				t.Fatalf("a refused upload (%v) landed on disk", err)
			}
			return
		}
		want := finishReport(t, m, dir)
		m.Close()
		m, err = OpenMerge(context.Background(), dir, Config{}, true)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if !m.Reusable("alpha") {
			t.Fatal("an accepted upload does not verify on resume")
		}
		if got := finishReport(t, m, dir); !bytes.Equal(got, want) {
			t.Fatalf("report.txt after resume differs:\n--- committed\n%s--- resumed\n%s", want, got)
		}
	})
}

// finishReport seals the one-shard report of m and returns its bytes.
func finishReport(t *testing.T, m *Merge, dir string) []byte {
	t.Helper()
	if _, err := m.FinishReport([]string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
