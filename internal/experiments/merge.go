package experiments

// Merge is the coordinator-facing half of a distributed sweep: it owns an
// outDir exactly like RunAll does (same single-writer lock, same
// manifest.json journal, same atomic CSV commits), but the tables arrive
// over the wire from workers instead of from in-process runners. The
// resulting directory is indistinguishable from a single-process sweep
// where it matters: `-resume` replays the merged manifest with unchanged
// semantics, and FinishReport renders report.txt byte-identically to what
// RunAll would have written for the same set of surviving experiments.
//
// All methods are safe for concurrent use — the coordinator's HTTP
// handlers commit results as they land.

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphio/internal/persist"
)

// Merge accumulates worker results into one resume-compatible sweep
// directory. Open with OpenMerge, feed with CommitResult / CommitFailure /
// CommitPoisoned, seal with FinishReport, release with Close.
type Merge struct {
	mu       sync.Mutex
	outDir   string
	man      *sweepManifest
	tables   map[string]*Table // latest committed/reused table per shard
	poisoned map[string]poisonNote
}

// poisonNote is what the report trailer needs to say about a given-up shard.
type poisonNote struct {
	attempts int
	err      string
}

// OpenMerge creates outDir if needed, acquires its single-writer lock
// (waiting up to cfg.LockWait behind a live holder), and opens the
// manifest journal. With resume set, prior records are replayed so
// Reusable can skip shards whose artifacts still verify; otherwise the
// journal starts fresh, exactly like RunAll without -resume.
func OpenMerge(ctx context.Context, outDir string, cfg Config, resume bool) (*Merge, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	man, err := openManifest(ctx, outDir, cfg, resume)
	if err != nil {
		return nil, err
	}
	return &Merge{
		outDir:   outDir,
		man:      man,
		tables:   map[string]*Table{},
		poisoned: map[string]poisonNote{},
	}, nil
}

// ConfigHash returns the hash the merge's outDir is pinned to; the
// coordinator hands it to workers at claim time so a misconfigured worker
// is rejected before it wastes a shard run.
func (m *Merge) ConfigHash() string {
	return m.man.hash
}

// Reusable reports whether the named shard's prior artifact verifies under
// the current config (same hash, CSV still matching its recorded SHA-256).
// On success the table is reloaded for FinishReport and a skipped record
// is journaled, mirroring what RunAll's -resume path does in-process.
func (m *Merge) Reusable(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A table this instance already committed is trivially current — the
	// ok record sits at the manifest's tail. This is the in-process
	// coordinator-restart case: the WAL replays against a Merge that
	// outlived the coordinator, whose prior map predates the commits.
	if _, ok := m.tables[name]; ok {
		return true
	}
	t, rec, ok := m.man.reusable(m.outDir, name)
	if !ok {
		return false
	}
	//lint:ignore lock-blocking the skip record and the table reload must land atomically under m.mu or a racing CommitPoisoned could interleave between them
	if err := m.man.skipped(rec); err != nil {
		return false
	}
	m.tables[name] = t
	delete(m.poisoned, name)
	return true
}

// CommitResult durably lands one shard result: the CSV bytes commit
// atomically as <name>.csv and the manifest gains an ok record carrying
// the artifact hash, wall time, and the worker that produced it. Calling
// it again for the same shard — the lease-race case, where a worker whose
// lease expired still finishes and uploads — simply overwrites: both
// results were computed under the same config hash, the manifest's
// replay-latest semantics make the newer record authoritative, and the
// CSV on disk matches it (last-write-wins).
func (m *Merge) CommitResult(name, title string, csvData []byte, wallMS int64, worker string) error {
	t, err := tableFromCSV(name, title, csvData)
	if err != nil {
		return fmt.Errorf("experiments: shard %s result: %w", name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:ignore lock-blocking the CSV artifact and its manifest record must commit atomically under m.mu (last-write-wins correctness); callers needing concurrency keep their own locks out of the way, as the coordinator does
	if err := persist.WriteFileAtomic(filepath.Join(m.outDir, name+".csv"), csvData, 0o644); err != nil {
		return err
	}
	rec := manifestRecord{
		Kind: recExperiment, ConfigHash: m.man.hash,
		Name: name, Title: title, Status: statusOK,
		Artifact: name + ".csv", SHA256: sha256Bytes(csvData),
		WallMS: wallMS, Worker: worker,
	}
	if err := m.man.append(rec); err != nil {
		return err
	}
	m.tables[name] = t
	delete(m.poisoned, name)
	return nil
}

// CommitFailure records one failed attempt (the shard stays eligible for
// retry; this is the audit trail, not a verdict).
func (m *Merge) CommitFailure(name string, wallMS int64, cause error, worker string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:ignore lock-blocking manifest appends must serialize under m.mu; a failure record is one small journal line
	return m.man.append(manifestRecord{
		Kind: recExperiment, ConfigHash: m.man.hash,
		Name: name, Status: statusFailed, Error: cause.Error(),
		WallMS: wallMS, Worker: worker,
	})
}

// CommitPoisoned records that the sweep gave up on a shard after its
// attempt cap. The record's non-ok status means a later -resume re-runs
// the shard rather than trusting it, and FinishReport lists it explicitly
// so a degraded sweep never silently loses work.
func (m *Merge) CommitPoisoned(name string, attempts int, cause error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:ignore lock-blocking the poison record and the table/poisoned-map transition must stay atomic under m.mu (append-before-effect)
	if err := m.man.append(manifestRecord{
		Kind: recExperiment, ConfigHash: m.man.hash,
		Name: name, Status: statusPoisoned, Error: cause.Error(), Attempts: attempts,
	}); err != nil {
		return err
	}
	m.poisoned[name] = poisonNote{attempts: attempts, err: cause.Error()}
	delete(m.tables, name)
	return nil
}

// Poisoned returns the shards the sweep gave up on, in the given canonical
// order (unordered extras appended — defensive, should not happen).
func (m *Merge) Poisoned(order []string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	seen := map[string]bool{}
	for _, name := range order {
		if _, ok := m.poisoned[name]; ok {
			names = append(names, name)
			seen[name] = true
		}
	}
	for name := range m.poisoned {
		if !seen[name] {
			names = append(names, name)
		}
	}
	return names
}

// FinishReport renders report.txt over every committed table, in the given
// canonical order (the caller passes the shard list in Runners() order, so
// the bytes match a single-process RunAll of the same experiments), seals
// its hash into the manifest, and returns the included table names. Shards
// the sweep poisoned are appended as an explicit trailer — a degraded
// sweep produces a partial report that says so, never a silently shrunken
// one. With nothing committed and nothing poisoned, no report is written
// (matching RunAll with zero successful experiments).
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
	if err := m.man.report(sha256Bytes(buf.Bytes())); err != nil {
		return nil, err
	}
	return included, nil
}

// WallHistory returns the per-experiment wall times the manifest already
// holds (prior runs included), for coordinators that want to schedule the
// slowest shards first.
func (m *Merge) WallHistory() map[string]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]time.Duration, len(m.man.walls))
	for k, v := range m.man.walls {
		out[k] = v
	}
	return out
}

// Close releases the journal and the outDir lock. Committed records and
// artifacts are already durable (every append and CSV write fsyncs), so a
// coordinator killed before Close loses nothing but the lock file — which
// the next open steals from the dead PID.
func (m *Merge) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	//lint:ignore lock-blocking final journal close at shutdown; holding m.mu keeps a straggling commit from appending to a closed journal
	m.man.close()
}

// tableFromCSV parses CSV bytes back into a Table: a resumed sweep's
// committed CSV, so report.txt covers a skipped experiment, or a worker's
// upload, whose shape it checks early so a torn or garbage upload is
// rejected at commit time, not discovered when the report renders.
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
