package experiments

// Merge owns a sweep directory: its single-writer lock, the manifest.json
// journal, the atomic CSV commits and report.txt. Both writers of such a
// directory go through it — RunAll commits each table as its experiment
// finishes, and the dist coordinator commits each shard a worker uploads —
// so a local sweep and a distributed one write the directory with the
// same code: one function commits a CSV and its ok record, one decides a
// `-resume` skip, and one renders report.txt. A merged directory therefore
// resumes like a local one, and its report.txt is byte-identical to a
// local sweep's over the same surviving tables; its manifest holds the
// same records with their own times, plus the worker behind each upload.
//
// All methods are safe for concurrent use — the coordinator's HTTP
// handlers commit results as they land.

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// Merge accumulates the tables of one sweep into a resume-compatible sweep
// directory. Open with OpenMerge, feed with committed tables and failures
// (and, from a coordinator, poisoned shards), seal with FinishReport,
// release with Close.
type Merge struct {
	outDir string
	hash   string // the config hash every record is stamped with
	// prior holds the latest experiment record per name in the replayed
	// manifest, and walls the wall-time history of the manifest as it was
	// before a fresh (non-resume) sweep truncated it, so the ETA estimator
	// and the coordinator's grant order can seed themselves even when the
	// results are not reused. Both are fixed at open.
	prior map[string]manifestRecord
	walls map[string]time.Duration

	mu       sync.Mutex
	journal  *persist.Journal
	lock     *persist.Lock
	tables   map[string]*Table // latest committed or reused table per name
	poisoned map[string]poisonNote
}

// poisonNote is what the report trailer needs to say about a given-up shard.
type poisonNote struct {
	attempts int
	err      string
}

// OpenMerge creates outDir if needed, acquires its single-writer lock
// (waiting up to cfg.LockWait behind a live holder; a lock left by a
// killed process is stolen), clears stale temp debris, and opens the
// manifest journal. With resume set, prior records are replayed so the
// sweep can skip experiments whose artifacts still verify; otherwise the
// journal starts fresh.
func OpenMerge(ctx context.Context, outDir string, cfg Config, resume bool) (*Merge, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
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
	m := &Merge{
		outDir: outDir, hash: cfg.Hash(), prior: map[string]manifestRecord{}, walls: walls,
		journal: journal, lock: lock, tables: map[string]*Table{}, poisoned: map[string]poisonNote{},
	}
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
	if err := m.appendLocked(manifestRecord{Kind: recSweep, ConfigHash: m.hash, Resumed: resume}); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// appendLocked stamps rec with the time and journals it. Caller holds
// m.mu, or has not shared m yet.
func (m *Merge) appendLocked(rec manifestRecord) error {
	rec.Time = obs.Now().UTC().Format(time.RFC3339)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	//lint:ignore lock-blocking append-before-effect: every manifest record appends under m.mu, so the record and the table state it describes change in one step
	return m.journal.Append(b)
}

// ConfigHash returns the hash the merge's outDir is pinned to; the
// coordinator hands it to workers at claim time so a misconfigured worker
// is rejected before it wastes a shard run.
func (m *Merge) ConfigHash() string {
	return m.hash
}

// reuse decides a -resume skip. It returns the table this sweep already
// holds for name, or reloads the artifact of name's prior ok record when
// that record carries the current config hash and the CSV on disk still
// has the recorded SHA-256; a reloaded table is journaled as skipped and
// kept for FinishReport, so report.txt still covers it byte for byte.
func (m *Merge) reuse(name string) (*Table, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A table this instance already committed is trivially current — the
	// ok record sits at the manifest's tail. This is the in-process
	// coordinator-restart case: the WAL replays against a Merge that
	// outlived the coordinator, whose prior map predates the commits.
	if t, ok := m.tables[name]; ok {
		return t, true
	}
	rec, ok := m.prior[name]
	if !ok || rec.Status != statusOK || rec.ConfigHash != m.hash || rec.Artifact == "" {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(m.outDir, rec.Artifact))
	if err != nil || sha256Bytes(data) != rec.SHA256 {
		return nil, false
	}
	t, err := tableFromCSV(name, rec.Title, data)
	if err != nil {
		return nil, false
	}
	if err := m.appendLocked(skipped(rec)); err != nil {
		return nil, false
	}
	m.tables[name] = t
	delete(m.poisoned, name)
	return t, true
}

// Reusable reports whether the named shard's prior artifact verifies under
// the current config; see reuse.
func (m *Merge) Reusable(name string) bool {
	_, ok := m.reuse(name)
	return ok
}

// commit durably lands one finished table: csvData commits atomically as
// <name>.csv, then the manifest gains an ok record carrying its SHA-256,
// the wall time, the worker that produced it ("" in a local sweep) and,
// when telemetry is on, scope's ID and metric digest. Committing a name
// again — the lease-race case, where a worker whose lease expired still
// finishes and uploads — overwrites: both results were computed under the
// same config hash, the newer record is authoritative on replay, and the
// CSV on disk matches it (last-write-wins).
func (m *Merge) commit(t *Table, csvData []byte, wallMS int64, worker string, scope *obs.Scope) error {
	rec := manifestRecord{
		Kind: recExperiment, ConfigHash: m.hash,
		Name: t.Name, Title: t.Title, Status: statusOK,
		Artifact: t.Name + ".csv", SHA256: sha256Bytes(csvData),
		WallMS: wallMS, Worker: worker,
	}
	stampScope(&rec, scope)
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:ignore lock-blocking the CSV artifact and its manifest record must commit atomically under m.mu (last-write-wins correctness); callers needing concurrency keep their own locks out of the way, as the coordinator does
	if err := persist.WriteFileAtomic(filepath.Join(m.outDir, t.Name+".csv"), csvData, 0o644); err != nil {
		return err
	}
	if err := m.appendLocked(rec); err != nil {
		return err
	}
	m.tables[t.Name] = t
	delete(m.poisoned, t.Name)
	return nil
}

// CommitResult parses one uploaded shard result and commits it; a torn or
// garbage upload is rejected here, before anything lands on disk, not
// discovered when the report renders. The title is made valid UTF-8 first,
// as the manifest's JSON would on the way back, so a resumed sweep renders
// the same report.
func (m *Merge) CommitResult(name, title string, csvData []byte, wallMS int64, worker string) error {
	t, err := tableFromCSV(name, strings.ToValidUTF8(title, "\uFFFD"), csvData)
	if err != nil {
		return fmt.Errorf("experiments: shard %s result: %w", name, err)
	}
	return m.commit(t, csvData, wallMS, worker, nil)
}

// fail records one failed attempt at the named experiment. It is the
// audit trail, not a verdict: a later -resume re-runs the experiment.
func (m *Merge) fail(name string, wallMS int64, cause error, worker string, scope *obs.Scope) error {
	rec := manifestRecord{
		Kind: recExperiment, ConfigHash: m.hash,
		Name: name, Status: statusFailed, Error: cause.Error(),
		WallMS: wallMS, Worker: worker,
	}
	stampScope(&rec, scope)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendLocked(rec)
}

// CommitFailure records one failed attempt at a shard; see fail.
func (m *Merge) CommitFailure(name string, wallMS int64, cause error, worker string) error {
	return m.fail(name, wallMS, cause, worker, nil)
}

// CommitPoisoned records that the sweep gave up on a shard after its
// attempt cap. The record's non-ok status means a later -resume re-runs
// the shard rather than trusting it, and FinishReport lists it explicitly
// so a degraded sweep never silently loses work.
func (m *Merge) CommitPoisoned(name string, attempts int, cause error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.appendLocked(manifestRecord{
		Kind: recExperiment, ConfigHash: m.hash,
		Name: name, Status: statusPoisoned, Error: cause.Error(), Attempts: attempts,
	}); err != nil {
		return err
	}
	m.poisoned[name] = poisonNote{attempts: attempts, err: cause.Error()}
	delete(m.tables, name)
	return nil
}

// FinishReport renders report.txt over every committed or reused table, in
// the given canonical order (so the bytes do not depend on the order in
// which tables arrived), seals its hash into the manifest, and returns the
// included table names. Shards the sweep poisoned are appended as an
// explicit trailer — a degraded sweep produces a partial report that says
// so, never a silently shrunken one. With nothing committed and nothing
// poisoned, no report is written.
func (m *Merge) FinishReport(order []string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tables) == 0 && len(m.poisoned) == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	var included []string
	for _, name := range order {
		t, ok := m.tables[name]
		if !ok {
			continue
		}
		if err := t.WriteText(&buf); err != nil {
			return nil, err
		}
		fmt.Fprintln(&buf)
		included = append(included, name)
	}
	if len(m.poisoned) > 0 {
		fmt.Fprintln(&buf, "== poisoned shards: permanently failed this sweep, excluded from the tables above ==")
		for _, name := range order {
			if note, ok := m.poisoned[name]; ok {
				fmt.Fprintf(&buf, "==   %s: gave up after %d attempt(s): %s\n", name, note.attempts, note.err)
			}
		}
	}
	//lint:ignore lock-blocking the report bytes, their sealed hash, and the tables they render must agree — one atomic section under m.mu at sweep end, when nothing contends
	if err := persist.WriteFileAtomic(filepath.Join(m.outDir, "report.txt"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := m.appendLocked(manifestRecord{Kind: recReport, ConfigHash: m.hash, Artifact: "report.txt", SHA256: sha256Bytes(buf.Bytes())}); err != nil {
		return nil, err
	}
	return included, nil
}

// WallHistory returns the per-experiment wall times the manifest already
// held when it was opened (prior runs included), for coordinators that
// want to schedule the slowest shards first.
func (m *Merge) WallHistory() map[string]time.Duration {
	return maps.Clone(m.walls)
}

// Close releases the journal and the outDir lock. Committed records and
// artifacts are already durable (every append and CSV write fsyncs), so a
// process killed before Close loses nothing but the lock file — which the
// next open steals from the dead PID.
func (m *Merge) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:ignore lock-blocking final journal close at shutdown; holding m.mu keeps a straggling commit from appending to a closed journal
	_ = m.journal.Close()
	_ = m.lock.Release()
}

// tableFromCSV parses CSV bytes back into a Table: a resumed sweep's
// committed CSV, so report.txt covers a skipped experiment, or a worker's
// upload.
func tableFromCSV(name, title string, data []byte) (*Table, error) {
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("empty CSV")
	}
	return &Table{Name: name, Title: title, Columns: records[0], Rows: records[1:]}, nil
}
