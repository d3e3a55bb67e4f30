package experiments

// Resume and crash-consistency semantics of the sweep driver: the
// manifest journal must let a restarted sweep skip exactly the work whose
// artifacts verify, re-run everything else, and converge to the same
// artifact set an uninterrupted sweep produces — while a failing artifact
// write can never leave a torn CSV behind.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphio/internal/faultinject"
	"graphio/internal/persist"
)

// countingRunners returns two well-behaved runners plus a map recording
// how many times each actually executed.
func countingRunners(names ...string) ([]Runner, map[string]int) {
	runs := map[string]int{}
	var rs []Runner
	for _, name := range names {
		name := name
		rs = append(rs, Runner{Name: name, Run: func(ctx context.Context, cfg Config) (*Table, error) {
			runs[name]++
			return stubTable(name), nil
		}})
	}
	return rs, runs
}

func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// assertCleanDir fails on temp debris or a leftover lock in outDir.
func assertCleanDir(t *testing.T, dir string) {
	t.Helper()
	for _, name := range dirListing(t, dir) {
		if strings.Contains(name, ".tmp") {
			t.Errorf("temp debris %s left in outDir", name)
		}
		if name == manifestLockName {
			t.Errorf("lock file still present after sweep")
		}
	}
}

func TestResumeCleanSkipsEverything(t *testing.T) {
	dir := t.TempDir()
	runners, runs := countingRunners("alpha", "beta")
	cfg := Config{}
	var log1 bytes.Buffer
	if _, err := runRunners(context.Background(), cfg, dir, nil, &log1, runners); err != nil {
		t.Fatal(err)
	}
	report1, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	csv1, err := os.ReadFile(filepath.Join(dir, "alpha.csv"))
	if err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	var log2 bytes.Buffer
	tables, err := runRunners(context.Background(), cfg, dir, nil, &log2, runners)
	if err != nil {
		t.Fatal(err)
	}
	if runs["alpha"] != 1 || runs["beta"] != 1 {
		t.Fatalf("resume recomputed experiments: runs = %v", runs)
	}
	if len(tables) != 2 || tables[0].Name != "alpha" || tables[1].Name != "beta" {
		t.Fatalf("resumed tables = %v, want [alpha beta]", tableNames(tables))
	}
	for _, name := range []string{"alpha", "beta"} {
		if !strings.Contains(log2.String(), "skipping "+name) {
			t.Errorf("log does not announce skipping %s:\n%s", name, log2.String())
		}
	}
	// Byte-identical artifacts: report regenerated from reloaded tables.
	report2, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report1, report2) {
		t.Errorf("report.txt differs after clean resume:\n--- first\n%s--- resumed\n%s", report1, report2)
	}
	csv2, err := os.ReadFile(filepath.Join(dir, "alpha.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Error("alpha.csv rewritten differently on resume")
	}
	assertCleanDir(t, dir)
}

func TestResumeConfigHashChangeRerunsEverything(t *testing.T) {
	dir := t.TempDir()
	runners, runs := countingRunners("alpha", "beta")
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{MaxK: 10}, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxK: 20, Resume: true} // result-affecting knob changed
	if _, err := runRunners(context.Background(), cfg, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	if runs["alpha"] != 2 || runs["beta"] != 2 {
		t.Fatalf("config change must invalidate every artifact: runs = %v", runs)
	}
}

func TestResumeArtifactHashMismatchRerunsJustThatOne(t *testing.T) {
	dir := t.TempDir()
	runners, runs := countingRunners("alpha", "beta", "gamma")
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	// Tamper with one committed artifact.
	//lint:ignore persist-writes deliberately tampers with a committed artifact to prove resume re-verifies hashes
	if err := os.WriteFile(filepath.Join(dir, "beta.csv"), []byte("k,v\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log2 bytes.Buffer
	cfg := Config{Resume: true}
	if _, err := runRunners(context.Background(), cfg, dir, nil, &log2, runners); err != nil {
		t.Fatal(err)
	}
	if runs["alpha"] != 1 || runs["gamma"] != 1 {
		t.Errorf("verified artifacts recomputed: runs = %v", runs)
	}
	if runs["beta"] != 2 {
		t.Errorf("tampered artifact not recomputed: runs = %v", runs)
	}
	if !strings.Contains(log2.String(), "re-running beta") {
		t.Errorf("log does not announce the re-run:\n%s", log2.String())
	}
	// The tampered file is restored to the canonical content.
	b, err := os.ReadFile(filepath.Join(dir, "beta.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) == "k,v\n9,9\n" {
		t.Error("re-run did not replace the tampered artifact")
	}
}

func TestResumeMissingArtifactReruns(t *testing.T) {
	dir := t.TempDir()
	runners, runs := countingRunners("alpha", "beta")
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "alpha.csv")); err != nil {
		t.Fatal(err)
	}
	if _, err := runRunners(context.Background(), Config{Resume: true}, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	if runs["alpha"] != 2 || runs["beta"] != 1 {
		t.Fatalf("runs = %v, want alpha re-run and beta skipped", runs)
	}
	if _, err := os.Stat(filepath.Join(dir, "alpha.csv")); err != nil {
		t.Error("alpha.csv not restored by resume")
	}
}

func TestResumeToleratesTornManifestRecord(t *testing.T) {
	dir := t.TempDir()
	runners, runs := countingRunners("alpha", "beta")
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, dir, nil, &log, runners); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a half-written record with no terminating newline.
	//lint:ignore persist-writes simulates a torn manifest tail by appending raw bytes behind persist's back
	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"crc":"12345678","rec":{"kind":"experiment","name":"be`)
	f.Close()
	var log2 bytes.Buffer
	if _, err := runRunners(context.Background(), Config{Resume: true}, dir, nil, &log2, runners); err != nil {
		t.Fatalf("resume over a torn manifest tail failed: %v", err)
	}
	if runs["alpha"] != 1 || runs["beta"] != 1 {
		t.Fatalf("torn tail must not invalidate durable records: runs = %v", runs)
	}
}

func TestResumeRacingSweepGetsTypedLockError(t *testing.T) {
	dir := t.TempDir()
	runners, _ := countingRunners("alpha")
	// A live concurrent sweep holds the manifest lock.
	lock, err := persist.AcquireLock(filepath.Join(dir, manifestLockName))
	if err != nil {
		t.Fatal(err)
	}
	defer lock.Release()
	var log bytes.Buffer
	_, err = runRunners(context.Background(), Config{Resume: true}, dir, nil, &log, runners)
	if !errors.Is(err, ErrSweepLocked) {
		t.Fatalf("racing sweep error = %v, want ErrSweepLocked", err)
	}
	// A lock whose owner is dead must not wedge the resume.
	lock.Release()
	//lint:ignore persist-writes forges a stale lock file from a dead PID to test lock stealing
	if err := os.WriteFile(filepath.Join(dir, manifestLockName), []byte("4194000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runRunners(context.Background(), Config{Resume: true}, dir, nil, &log, runners); err != nil {
		t.Fatalf("stale lock not stolen by resume: %v", err)
	}
}

func TestResumeRerunsPriorFailure(t *testing.T) {
	dir := t.TempDir()
	failNow := true
	runs := 0
	runners := []Runner{
		okRunner("alpha"),
		{Name: "flaky", Run: func(ctx context.Context, cfg Config) (*Table, error) {
			runs++
			if failNow {
				return nil, fmt.Errorf("transient: %w", faultinject.ErrInjected)
			}
			return stubTable("flaky"), nil
		}},
	}
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, dir, nil, &log, runners); err == nil {
		t.Fatal("first sweep with a failing experiment returned nil error")
	}
	if _, err := os.Stat(filepath.Join(dir, "flaky.csv")); err == nil {
		t.Fatal("failed experiment left a CSV behind")
	}
	failNow = false
	var log2 bytes.Buffer
	tables, err := runRunners(context.Background(), Config{Resume: true}, dir, nil, &log2, runners)
	if err != nil {
		t.Fatalf("resume after failure: %v", err)
	}
	if runs != 2 {
		t.Fatalf("flaky ran %d times, want 2 (once per sweep)", runs)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %v", tableNames(tables))
	}
	if !strings.Contains(log2.String(), "skipping alpha") {
		t.Error("alpha recomputed despite verifying")
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "stub flaky") {
		t.Error("report.txt missing the recovered experiment")
	}
}

// TestResumeConvergesToUninterruptedArtifacts is the acceptance bar at
// the package level: a sweep cancelled mid-run and resumed must produce
// the identical artifact bytes an uninterrupted sweep produces, without
// re-running experiments that verified.
func TestResumeConvergesToUninterruptedArtifacts(t *testing.T) {
	mk := func() []Runner {
		return []Runner{okRunner("alpha"), okRunner("beta"), okRunner("gamma")}
	}
	refDir := t.TempDir()
	var log bytes.Buffer
	if _, err := runRunners(context.Background(), Config{}, refDir, nil, &log, mk()); err != nil {
		t.Fatal(err)
	}

	// Interrupted sweep: cancellation lands while beta is in flight.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := mk()
	interrupted[1] = Runner{Name: "beta", Run: func(ctx context.Context, cfg Config) (*Table, error) {
		cancel()
		return nil, ctx.Err()
	}}
	if _, err := runRunners(ctx, Config{}, dir, nil, &log, interrupted); err == nil {
		t.Fatal("interrupted sweep returned nil error")
	}
	resumed, runs := countingRunners("alpha", "beta", "gamma")
	if _, err := runRunners(context.Background(), Config{Resume: true}, dir, nil, &log, resumed); err != nil {
		t.Fatal(err)
	}
	if runs["alpha"] != 0 {
		t.Error("alpha re-ran despite a verified artifact")
	}
	if runs["beta"] != 1 || runs["gamma"] != 1 {
		t.Errorf("interrupted experiments not recovered: runs = %v", runs)
	}
	for _, name := range []string{"alpha.csv", "beta.csv", "gamma.csv", "report.txt"} {
		ref, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s missing after resume: %v", name, err)
		}
		if !bytes.Equal(ref, got) {
			t.Errorf("%s differs from the uninterrupted run", name)
		}
	}
	assertCleanDir(t, dir)
}

// TestRunnerFailureLeavesNoPartialCSV is the satellite regression: a
// runner that errors mid-run — here via an injected fault — must leave no
// zero-byte or partial <name>.csv, because the CSV is rendered from the
// completed Table and committed atomically.
func TestRunnerFailureLeavesNoPartialCSV(t *testing.T) {
	dir := t.TempDir()
	runners := []Runner{
		okRunner("good"),
		{Name: "torn", Run: func(ctx context.Context, cfg Config) (*Table, error) {
			// A solver dying between data points: the half-built table is
			// discarded with the error and must never reach disk.
			return nil, fmt.Errorf("solver died mid-run: %w", faultinject.ErrInjected)
		}},
	}
	var log bytes.Buffer
	_, err := runRunners(context.Background(), Config{}, dir, nil, &log, runners)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "torn.csv")); statErr == nil {
		t.Fatal("torn.csv exists for a failed runner")
	}
	assertCleanDir(t, dir)
}

// TestWriteCSVFaultNeverPublishes drives the atomic CSV commit through a
// failing filesystem: the destination must stay absent, no temp file may
// survive, and the manifest must gain no record of it.
func TestWriteCSVFaultNeverPublishes(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenMerge(context.Background(), dir, Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap only files opened from here on: the CSV's temp file, not the
	// manifest journal.
	persist.WrapFile = func(f persist.File) persist.File {
		return &faultinject.File{F: f, FailOnSync: 1}
	}
	tab := stubTable("doomed")
	err = m.commit(tab, csvBytes(t, tab), 1, "", nil)
	persist.WrapFile = nil
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("commit with failing sync = %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "doomed.csv")); statErr == nil {
		t.Fatal("doomed.csv published despite the failed commit")
	}
	for _, name := range dirListing(t, dir) {
		if name != ManifestName && name != manifestLockName {
			t.Errorf("unexpected file %s after failed commit", name)
		}
	}
	m.Close()
	m, err = OpenMerge(context.Background(), dir, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok := m.prior["doomed"]; ok {
		t.Error("the manifest recorded the failed commit")
	}
}

func TestConfigHashStability(t *testing.T) {
	a, b := QuickConfig(), QuickConfig()
	if a.Hash() != b.Hash() {
		t.Fatal("identical configs hash differently")
	}
	// Operational knobs must not invalidate artifacts.
	b.Resume = true
	b.Progress = os.Stderr
	b.ExperimentTimeout = 12345
	b.AfterExperiment = func(string) {}
	if a.Hash() != b.Hash() {
		t.Error("operational knobs changed the config hash")
	}
	// Every result-affecting knob must.
	c := QuickConfig()
	c.Seed = 999
	if a.Hash() == c.Hash() {
		t.Error("seed change not reflected in hash")
	}
	d := QuickConfig()
	d.FFTLevels = append(d.FFTLevels, 11)
	if a.Hash() == d.Hash() {
		t.Error("sweep-range change not reflected in hash")
	}
}
