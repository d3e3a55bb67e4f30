package experiments

// Sweep durability. The manifest is an append-only, checksummed JSONL
// journal (persist.Journal) named manifest.json in outDir. Each completed
// experiment appends one record carrying the config hash it ran under,
// its status, and the SHA-256 of its committed CSV, so a later -resume
// can prove an artifact is both present and current before skipping the
// recompute. Replay takes the latest record per experiment; a torn final
// record — the crash case — is discarded by the journal layer.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

const (
	// ManifestName is the sweep manifest journal inside outDir.
	ManifestName = "manifest.json"
	// manifestLockName is the single-writer lock guarding outDir.
	manifestLockName = "manifest.lock"
)

// ErrSweepLocked reports that another live process is already sweeping
// into the same outDir. (A lock left by a killed process is stolen, not
// reported.)
var ErrSweepLocked = errors.New("experiments: another sweep is running in this outDir")

// Record kinds. A sweep record opens each run; experiment records carry
// per-artifact state; a report record seals the combined report.txt.
const (
	recSweep      = "sweep"
	recExperiment = "experiment"
	recReport     = "report"
)

// manifestRecord is one journal entry. Fields are pointers-free and
// omitempty so records stay one short JSON line each.
type manifestRecord struct {
	Kind string `json:"kind"`

	// Every kind. ConfigHash pins the Config the work is valid for;
	// stamping it per record (not just on the sweep header) keeps each
	// experiment's skip decision self-contained across resumed runs.
	ConfigHash string `json:"config_hash,omitempty"`
	Time       string `json:"time,omitempty"` // RFC3339, informational

	// recSweep.
	Resumed bool `json:"resumed,omitempty"`

	// recExperiment.
	Name    string `json:"name,omitempty"`
	Title   string `json:"title,omitempty"` // table title, for report regeneration
	Status  string `json:"status,omitempty"`
	Skipped bool   `json:"skipped,omitempty"` // verified and reused, not recomputed
	Error   string `json:"error,omitempty"`
	WallMS  int64  `json:"wall_ms,omitempty"`

	// recExperiment, distributed sweeps only: which worker produced the
	// artifact and how many attempts a poisoned shard burned. Informational
	// — resume skip decisions ignore both, so a merged manifest stays fully
	// resume-compatible with a single-process one.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	// recExperiment and recReport: the committed artifact and its hash.
	Artifact string `json:"artifact,omitempty"`
	SHA256   string `json:"sha256,omitempty"`

	// recExperiment: the telemetry scope the experiment ran under and the
	// digest of that scope's metric snapshot at completion, tying the
	// manifest row to its section in a -metrics-out dump and to the
	// scope/scope_id tags on -events-out records. Informational only:
	// scope IDs are per-process, so resume skip decisions ignore both.
	ScopeID       string `json:"scope_id,omitempty"`
	MetricsSHA256 string `json:"metrics_sha256,omitempty"`
}

const (
	statusOK     = "ok"
	statusFailed = "failed"
	// statusPoisoned marks a shard a distributed sweep gave up on after its
	// attempt cap: permanently failed for *this* sweep, but — like any
	// non-ok record — re-run by a later -resume, so poisoning never
	// strands an experiment forever.
	statusPoisoned = "poisoned"
)

// Hash returns a stable hex digest of every Config field that affects
// experiment results. Two sweeps with equal hashes produce identical
// artifacts, so a resume may reuse verified ones; operational knobs that
// cannot change results (Progress, ExperimentTimeout, Resume, the
// AfterExperiment hook) are deliberately excluded.
func (c Config) Hash() string {
	shadow := struct {
		V                int // bump to invalidate every old manifest on format change
		FFTLevels        []int
		FFTMemories      []int
		MatMulSizes      []int
		MatMulMemories   []int
		StrassenSizes    []int
		StrassenMemories []int
		BHKCities        []int
		BHKMemories      []int
		MinCutTimeoutNS  int64
		MinCutMaxN       int
		Solver           int
		MaxK             int
		SandwichSamples  int
		ERSizes          []int
		ERP0             float64
		Seed             int64
	}{
		V:         1,
		FFTLevels: c.FFTLevels, FFTMemories: c.FFTMemories,
		MatMulSizes: c.MatMulSizes, MatMulMemories: c.MatMulMemories,
		StrassenSizes: c.StrassenSizes, StrassenMemories: c.StrassenMemories,
		BHKCities: c.BHKCities, BHKMemories: c.BHKMemories,
		MinCutTimeoutNS: c.MinCutTimeout.Nanoseconds(), MinCutMaxN: c.MinCutMaxN,
		Solver: int(c.Solver), MaxK: c.MaxK,
		SandwichSamples: c.SandwichSamples,
		ERSizes:         c.ERSizes, ERP0: c.ERP0, Seed: c.Seed,
	}
	b, err := json.Marshal(shadow)
	if err != nil {
		// Marshalling a struct of ints and slices cannot fail; if it ever
		// does, an unforgeable hash disables all skipping rather than
		// risking a stale artifact.
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepManifest owns the journal and lock for one RunAll invocation.
type sweepManifest struct {
	journal *persist.Journal
	lock    *persist.Lock
	hash    string
	prior   map[string]manifestRecord // latest experiment record per name
	// walls is the previous manifest's wall-time history, captured before
	// a fresh (non-resume) sweep truncates the journal: the ETA estimator
	// can then seed itself even when the results themselves are not reused.
	walls map[string]time.Duration
}

// openManifest locks outDir, clears stale temp debris, and opens the
// manifest journal. With resume set, prior records are replayed so the
// sweep can skip verified work; otherwise the journal starts fresh.
// Config.LockWait bounds how long the lock acquisition queues behind
// another live sweep before failing typed (zero: fail immediately).
func openManifest(ctx context.Context, outDir string, cfg Config, resume bool) (*sweepManifest, error) {
	lock, err := persist.AcquireLockWait(ctx, filepath.Join(outDir, manifestLockName), cfg.LockWait)
	if err != nil {
		if errors.Is(err, persist.ErrLocked) {
			return nil, fmt.Errorf("%w: %v", ErrSweepLocked, err)
		}
		return nil, err
	}
	if _, err := persist.RemoveStaleTemps(outDir); err != nil {
		_ = lock.Release()
		return nil, err
	}
	path := filepath.Join(outDir, ManifestName)
	walls := readManifestWalls(path)
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			_ = lock.Release()
			return nil, err
		}
	}
	journal, records, err := persist.OpenJournal(path)
	if err != nil {
		_ = lock.Release()
		return nil, fmt.Errorf("experiments: opening sweep manifest: %w", err)
	}
	m := &sweepManifest{journal: journal, lock: lock, hash: cfg.Hash(), prior: map[string]manifestRecord{}, walls: walls}
	//lint:ignore ctx-loop replay decodes records already in memory — bounded work with nothing to cancel
	for _, raw := range records {
		var rec manifestRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue // checksummed but unknown shape: treat as absent
		}
		if rec.Kind == recExperiment && rec.Name != "" {
			m.prior[rec.Name] = rec
		}
	}
	if err := m.append(manifestRecord{Kind: recSweep, ConfigHash: m.hash, Resumed: resume}); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *sweepManifest) append(rec manifestRecord) error {
	rec.Time = obs.Now().UTC().Format(time.RFC3339)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return m.journal.Append(b)
}

// completed records a successful experiment and its committed artifact.
// sc, when non-nil and telemetry is enabled, stamps the record with the
// experiment's scope ID and metric-snapshot digest.
func (m *sweepManifest) completed(t *Table, sha string, wall time.Duration, sc *obs.Scope) error {
	rec := manifestRecord{
		Kind: recExperiment, ConfigHash: m.hash,
		Name: t.Name, Title: t.Title, Status: statusOK,
		Artifact: t.Name + ".csv", SHA256: sha, WallMS: wall.Milliseconds(),
	}
	stampScope(&rec, sc)
	return m.append(rec)
}

// failed records an experiment that ran and errored.
func (m *sweepManifest) failed(name string, wall time.Duration, cause error, sc *obs.Scope) error {
	rec := manifestRecord{
		Kind: recExperiment, ConfigHash: m.hash,
		Name: name, Status: statusFailed, Error: cause.Error(), WallMS: wall.Milliseconds(),
	}
	stampScope(&rec, sc)
	return m.append(rec)
}

// stampScope annotates an experiment record with its telemetry scope.
// Skipped when telemetry is off: the digest of an always-empty snapshot
// carries no information, and the manifest should stay byte-stable for
// sweeps run without -metrics.
func stampScope(rec *manifestRecord, sc *obs.Scope) {
	if sc == nil || !obs.Enabled() {
		return
	}
	rec.ScopeID = sc.ID()
	rec.MetricsSHA256 = sc.Digest()
}

// skipped re-records a verified prior result so the manifest's tail
// always reflects the latest sweep's view of every experiment.
func (m *sweepManifest) skipped(prior manifestRecord) error {
	prior.Kind = recExperiment
	prior.ConfigHash = m.hash
	prior.Skipped = true
	prior.Time = ""
	return m.append(prior)
}

// report seals the combined report.txt's hash.
func (m *sweepManifest) report(sha string) error {
	return m.append(manifestRecord{Kind: recReport, ConfigHash: m.hash, Artifact: "report.txt", SHA256: sha})
}

// reusable decides whether an experiment can be skipped under the current
// config: a prior ok record with a matching config hash whose artifact is
// still on disk with the recorded hash. It returns the reloaded table on
// success (so report.txt still covers skipped experiments byte-for-byte).
func (m *sweepManifest) reusable(outDir, name string) (*Table, manifestRecord, bool) {
	rec, ok := m.prior[name]
	if !ok || rec.Status != statusOK || rec.ConfigHash != m.hash || rec.Artifact == "" {
		return nil, rec, false
	}
	data, err := os.ReadFile(filepath.Join(outDir, rec.Artifact))
	if err != nil || sha256Bytes(data) != rec.SHA256 {
		return nil, rec, false
	}
	t, err := tableFromCSV(name, rec.Title, data)
	if err != nil {
		return nil, rec, false
	}
	return t, rec, true
}

func (m *sweepManifest) close() {
	_ = m.journal.Close()
	_ = m.lock.Release()
}

// sha256Bytes hashes an in-memory artifact.
func sha256Bytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
