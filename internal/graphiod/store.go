package graphiod

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphio/internal/graph"
	"graphio/internal/jobs"
	"graphio/internal/obs"
	"graphio/internal/persist"
)

// jobData is a job's own part of its job-table row, journaled with the
// accept: the canonical spec (whose hash is the cache key), the
// submitter, and the deadline.
type jobData struct {
	Spec   jobSpec `json:"spec"`
	Client string  `json:"client,omitempty"`
	// Host is the submitter's remote address, kept separately from the
	// request-supplied Client so per-address admission caps cannot be
	// dodged by varying the client string.
	Host      string `json:"host,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// job is one admitted request as the job table holds it.
type job = jobs.Task[jobData]

// store is the daemon's data dir, guarded by one persist lock: the job
// table (journaled to jobs.jsonl) and the content-addressed graph and
// artifact directories.
type store struct {
	dir  string
	lock *persist.Lock
	jobs *jobs.Table[jobData]
	logf func(format string, args ...interface{})
	// replayed counts jobs re-queued from the WAL on open (crash recovery).
	replayed int
}

func walPath(dir string) string    { return filepath.Join(dir, "jobs.jsonl") }
func lockPath(dir string) string   { return filepath.Join(dir, "graphiod.lock") }
func graphsDir(dir string) string  { return filepath.Join(dir, "graphs") }
func resultsDir(dir string) string { return filepath.Join(dir, "results") }
func graphPath(dir, sha string) string {
	return filepath.Join(graphsDir(dir), sha+".json")
}
func artifactPath(dir, key string) string {
	return filepath.Join(resultsDir(dir), key+".json")
}

// openStore locks dir and replays the job table, which verifies every
// completed job's artifact by content hash and re-queues everything
// accepted but never durably resolved. retain bounds the terminal jobs
// kept (0 keeps all); logf may be nil.
func openStore(dir string, retain int, logf func(format string, args ...interface{})) (*store, error) {
	if err := os.MkdirAll(graphsDir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("graphiod: data dir: %w", err)
	}
	if err := os.MkdirAll(resultsDir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("graphiod: data dir: %w", err)
	}
	lock, err := persist.AcquireLock(lockPath(dir))
	if err != nil {
		return nil, fmt.Errorf("graphiod: %w", err)
	}
	// A write killed mid-commit leaves its temp file beside its target:
	// the compacted jobs.jsonl in dir, an upload in graphs/, an artifact in
	// results/.
	for _, d := range []string{dir, graphsDir(dir), resultsDir(dir)} {
		if _, err := persist.RemoveStaleTemps(d); err != nil {
			_ = lock.Release()
			return nil, err
		}
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	s := &store{dir: dir, lock: lock, logf: logf}
	s.jobs, err = jobs.Open(walPath(dir), jobs.Options[jobData]{
		Key: func(_ string, d jobData) string { return d.Spec.Key() },
		// Trust, but verify: a done job whose artifact is missing or does
		// not hash to the journaled SHA runs again. A crash between the
		// artifact rename and the done append leaves a valid orphan
		// artifact; the reverse order cannot happen.
		Verify: s.verifyArtifact,
		Retain: retain,
		Logf:   logf,
	})
	if err != nil {
		_ = lock.Release()
		return nil, fmt.Errorf("graphiod: %w", err)
	}
	s.replayed = s.jobs.Queued()
	return s, nil
}

func (s *store) verifyArtifact(key, wantSHA string) bool {
	data, err := s.readArtifact(key)
	if err != nil {
		return false
	}
	return sha256Hex(data) == wantSHA
}

func (s *store) close() {
	_ = s.jobs.Close()
	_ = s.lock.Release()
}

// admitLimits are the admission caps accept enforces atomically with the
// acceptance itself, so concurrent submissions cannot overshoot them. A
// cap ≤ 0 is unenforced.
type admitLimits struct {
	// ClientInFlight caps one client name's queued+running jobs.
	ClientInFlight int
	// HostInFlight caps one remote address's queued+running jobs across
	// every client name it claims — the client field is request-supplied,
	// so without this a submitter could dodge its cap by varying it.
	HostInFlight int
	// QueueCap caps queued (not yet running) jobs.
	QueueCap int
}

// admitError is a typed admission rejection; the HTTP layer maps it to a
// structured 429 with the Retry-After hint.
type admitError struct {
	Fault      Fault
	RetryAfter int
}

func (e *admitError) Error() string { return "graphiod: " + e.Fault.Message }

// admit checks the caps for one prospective job against the live
// (queued and running) ones.
func (lim admitLimits) admit(live []job, client, host string) error {
	clientN, hostN, queued := 0, 0, 0
	for _, j := range live {
		if j.State == StateQueued {
			queued++
		}
		if j.Data.Client == client {
			clientN++
		}
		if host != "" && j.Data.Host == host {
			hostN++
		}
	}
	// Per-client cap first: a hogging client must not be able to convert
	// its own backlog into queue_full 429s for everyone.
	if lim.ClientInFlight > 0 && clientN >= lim.ClientInFlight {
		return &admitError{RetryAfter: 10, Fault: Fault{
			Kind: "client_limit", Limit: int64(lim.ClientInFlight),
			Message: fmt.Sprintf("client %q already has %d jobs in flight", client, clientN),
		}}
	}
	if lim.HostInFlight > 0 && host != "" && hostN >= lim.HostInFlight {
		return &admitError{RetryAfter: 10, Fault: Fault{
			Kind: "host_limit", Limit: int64(lim.HostInFlight),
			Message: fmt.Sprintf("address %q already has %d jobs in flight", host, hostN),
		}}
	}
	if lim.QueueCap > 0 && queued >= lim.QueueCap {
		return &admitError{RetryAfter: 30, Fault: Fault{
			Kind: "queue_full", Limit: int64(lim.QueueCap),
			Message: fmt.Sprintf("queue at capacity (%d jobs)", queued),
		}}
	}
	return nil
}

// accept admits a new job: the admission caps, the WAL append and the
// insert are one step of the job table, so N racing submissions cannot
// collectively overshoot the caps. When the result cache already holds
// the key, the job is returned already done and charges no cap: a cache
// hit consumes no queue or solver capacity.
func (s *store) accept(spec jobSpec, priority int, client, host string, timeout time.Duration, lim admitLimits) (job, error) {
	data := jobData{Spec: spec, Client: client, Host: host, TimeoutMS: timeout.Milliseconds()}
	return s.jobs.Accept("", priority, data, func(live []job) error { return lim.admit(live, client, host) })
}

// get returns one job's wire info.
func (s *store) get(id string) (JobInfo, bool) {
	j, ok := s.jobs.Get(id)
	return jobInfo(j), ok
}

// list returns every job's wire info, in submission order.
func (s *store) list() []JobInfo {
	all := s.jobs.List()
	out := make([]JobInfo, len(all))
	for i, j := range all {
		out[i] = jobInfo(j)
	}
	return out
}

// storeGraph content-addresses an uploaded graph's canonical JSON under
// graphs/<sha>.json, before the WAL record that references it is appended.
// Re-uploading identical bytes is a no-op.
func (s *store) storeGraph(canonical []byte) (string, error) {
	sha := sha256Hex(canonical)
	path := graphPath(s.dir, sha)
	if existing, err := os.ReadFile(path); err == nil && sha256Hex(existing) == sha {
		return sha, nil
	}
	if err := persist.WriteFileAtomic(path, canonical, 0o644); err != nil {
		return "", fmt.Errorf("graphiod: store graph: %w", err)
	}
	return sha, nil
}

// loadGraph rereads a stored upload and verifies it still hashes to sha.
func (s *store) loadGraph(sha string) (*graph.Graph, error) {
	if !isContentKey(sha) {
		return nil, fmt.Errorf("graphiod: invalid graph hash %q", sha)
	}
	data, err := os.ReadFile(graphPath(s.dir, sha))
	if err != nil {
		return nil, fmt.Errorf("graphiod: stored graph %s: %w", sha, err)
	}
	if got := sha256Hex(data); got != sha {
		return nil, fmt.Errorf("graphiod: stored graph %s corrupted (hashes to %s)", sha, got)
	}
	g, err := graph.ReadJSONLimit(strings.NewReader(string(data)), int64(len(data))+1)
	if err != nil {
		return nil, fmt.Errorf("graphiod: stored graph %s: %w", sha, err)
	}
	return g, nil
}

// commitArtifact durably publishes a result under its cache key and
// returns the content hash the WAL's done record carries.
func (s *store) commitArtifact(key string, data []byte) (string, error) {
	if err := persist.WriteFileAtomic(artifactPath(s.dir, key), data, 0o644); err != nil {
		return "", fmt.Errorf("graphiod: commit artifact: %w", err)
	}
	return sha256Hex(data), nil
}

// readArtifact returns the raw artifact bytes for a key. Keys reach here
// from the URL path, so anything that is not a content hash is rejected
// before it can touch the filesystem — "../" in a key must never resolve
// to a path outside the results dir.
func (s *store) readArtifact(key string) ([]byte, error) {
	if !isContentKey(key) {
		return nil, fmt.Errorf("graphiod: invalid artifact key %q", key)
	}
	return os.ReadFile(artifactPath(s.dir, key))
}

// sweepArtifacts deletes cached artifacts whose file is older than ttl and
// whose key no retained job row references. Rows pin their artifacts:
// expiring one a "done" record still names would make WAL replay re-run
// that job, so the TTL only reaps artifacts that outlived their status
// row. The job table evicts each cache entry atomically with its unlink.
// (After a crash, a few dead WAL records can still name a reaped
// artifact; replay then re-runs those jobs, as for a missing artifact.)
func (s *store) sweepArtifacts(ttl time.Duration) (int, error) {
	if ttl <= 0 {
		return 0, nil
	}
	entries, err := os.ReadDir(resultsDir(s.dir))
	if err != nil {
		return 0, err
	}
	cutoff := obs.Now().Add(-ttl)
	var stale []string
	for _, ent := range entries {
		name := ent.Name()
		key := strings.TrimSuffix(name, ".json")
		if ent.IsDir() || key == name || !isContentKey(key) {
			continue
		}
		info, err := ent.Info()
		if err != nil || !info.ModTime().Before(cutoff) {
			continue
		}
		stale = append(stale, key)
	}
	if len(stale) == 0 {
		return 0, nil
	}
	return s.jobs.Evict(stale, func(key string) bool {
		if err := os.Remove(artifactPath(s.dir, key)); err != nil && !os.IsNotExist(err) {
			s.logf("artifact GC: %v", err)
			return false
		}
		return true
	}), nil
}
