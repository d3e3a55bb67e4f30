package graphiod

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphio/internal/graph"
	"graphio/internal/obs"
	"graphio/internal/persist"
)

// walRecord is one frame in the daemon's job WAL. "accept" carries the full
// canonical spec so replay needs nothing but the WAL and the content
// directories; "done"/"fail"/"shed" are terminal transitions referencing
// the accept by ID. Every record is appended (and fsynced, via
// persist.Journal) before the transition it describes takes effect.
// Compaction adds two snapshot kinds: "result" pins one result-cache entry
// (key → artifact hash) independent of any job, and "meta" pins the ID
// counter so pruned jobs' IDs are never reissued after a restart.
type walRecord struct {
	Kind      string   `json:"kind"` // accept | done | fail | shed | result | meta
	ID        string   `json:"id,omitempty"`
	Spec      *jobSpec `json:"spec,omitempty"`
	Priority  int      `json:"priority,omitempty"`
	Client    string   `json:"client,omitempty"`
	Host      string   `json:"host,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
	Cached    bool     `json:"cached,omitempty"`
	// SHA is the artifact's SHA-256 on "done" records; replay re-hashes the
	// artifact file and re-queues the job if the bytes do not match.
	SHA     string `json:"sha,omitempty"`
	WallMS  int64  `json:"wall_ms,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	Error   string `json:"error,omitempty"`
	// Key is the cache key a "result" snapshot record pins.
	Key string `json:"key,omitempty"`
	// NextID is the ID counter a "meta" snapshot record pins.
	NextID int `json:"next_id,omitempty"`
}

// store is the daemon's durable heart: the WAL-journaled job table, the
// priority queue over it, and the content-addressed graph/artifact
// directories, all rooted in one data dir guarded by a persist lock.
type store struct {
	dir  string
	lock *persist.Lock
	wal  *persist.Journal
	logf func(format string, args ...interface{})

	mu      sync.Mutex
	jobs    map[string]*job
	queue   jobHeap
	seq     int
	nextID  int
	results map[string]string // cache: job key -> verified artifact SHA-256
	// replayed counts jobs re-queued from the WAL on open (crash recovery).
	replayed int
	// retain bounds the terminal jobs kept in the job table (and hence the
	// WAL after compaction); the oldest beyond it are pruned. Their
	// artifacts and result-cache entries survive — only the status row goes.
	retain int
	// compactEvery triggers a WAL rewrite after that many appends, so the
	// journal (and restart replay time) stays proportional to live state,
	// not to every job ever accepted.
	compactEvery     int
	recsSinceCompact int
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

// walCompactSlack is how many dead WAL records openStore tolerates before
// rewriting the journal on open (appends during a run are governed by
// compactEvery instead).
const walCompactSlack = 64

// openStore locks dir, replays the WAL, verifies every completed job's
// artifact by content hash, and re-queues everything accepted but never
// durably resolved — the restart half of append-before-effect. retain
// bounds the terminal jobs kept (≤ 0 means a default); logf may be nil.
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
	if _, err := persist.RemoveStaleTemps(resultsDir(dir)); err != nil {
		_ = lock.Release()
		return nil, err
	}
	wal, recs, err := persist.OpenJournal(walPath(dir))
	if err != nil {
		_ = lock.Release()
		return nil, fmt.Errorf("graphiod: open WAL: %w", err)
	}
	if retain <= 0 {
		retain = 4096
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	s := &store{
		dir:          dir,
		lock:         lock,
		wal:          wal,
		logf:         logf,
		jobs:         make(map[string]*job),
		results:      make(map[string]string),
		retain:       retain,
		compactEvery: 1024,
	}
	for _, raw := range recs {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A CRC-valid frame that is not JSON means a writer bug, not a
			// torn tail; refuse to guess at the queue state.
			s.close()
			return nil, fmt.Errorf("graphiod: corrupt WAL record: %w", err)
		}
		s.applyReplay(rec)
	}
	// Rebuild the run queue from whatever the WAL left unresolved.
	for _, j := range s.jobs {
		if j.State == StateQueued {
			s.replayed++
			heap.Push(&s.queue, j)
		}
	}
	// A WAL dominated by dead records (terminal jobs past retention, stale
	// cache entries) is rewritten to live state before serving, so replay
	// cost stays bounded across restarts.
	s.pruneLocked()
	if len(recs) > s.liveRecordsLocked()+walCompactSlack {
		if err := s.compactLocked(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// applyReplay folds one WAL record into the in-memory job table. Terminal
// records for unknown IDs are ignored (the accept lived in a torn tail).
func (s *store) applyReplay(rec walRecord) {
	switch rec.Kind {
	case "accept":
		if rec.Spec == nil {
			return
		}
		j := &job{
			ID:       rec.ID,
			Key:      rec.Spec.Key(),
			Spec:     *rec.Spec,
			Priority: rec.Priority,
			Client:   rec.Client,
			Host:     rec.Host,
			Timeout:  time.Duration(rec.TimeoutMS) * time.Millisecond,
			seq:      s.seq,
			State:    StateQueued,
			Cached:   rec.Cached,
		}
		s.seq++
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j")); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
		s.jobs[j.ID] = j
	case "done":
		j, ok := s.jobs[rec.ID]
		if !ok {
			return
		}
		// Trust, but verify: the artifact must exist with the journaled
		// hash, or the job runs again. A crash between the artifact rename
		// and the WAL append leaves a valid orphan artifact; the reverse
		// order cannot happen (artifact commits before the done record).
		if s.verifyArtifact(j.Key, rec.SHA) {
			j.State = StateDone
			j.ArtifactSHA = rec.SHA
			j.WallMS = rec.WallMS
			s.results[j.Key] = rec.SHA
		}
	case "fail":
		if j, ok := s.jobs[rec.ID]; ok {
			j.State = StateFailed
			j.ErrKind = rec.ErrKind
			j.ErrMsg = rec.Error
			j.WallMS = rec.WallMS
		}
	case "shed":
		if j, ok := s.jobs[rec.ID]; ok {
			j.State = StateShed
		}
	case "result":
		// Compaction snapshot of one result-cache entry; same trust-but-
		// verify rule as "done" records.
		if s.verifyArtifact(rec.Key, rec.SHA) {
			s.results[rec.Key] = rec.SHA
		}
	case "meta":
		if rec.NextID > s.nextID {
			s.nextID = rec.NextID
		}
	}
}

func (s *store) verifyArtifact(key, wantSHA string) bool {
	data, err := s.readArtifact(key)
	if err != nil {
		return false
	}
	return sha256Hex(data) == wantSHA
}

func (s *store) close() {
	_ = s.wal.Close()
	_ = s.lock.Release()
}

// append journals rec durably; the caller applies the effect only after a
// nil return (append-before-effect). Callers hold s.mu.
func (s *store) append(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("graphiod: marshal WAL record: %w", err)
	}
	if err := s.wal.Append(b); err != nil {
		return err
	}
	s.recsSinceCompact++
	return nil
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

// admitLocked checks the caps for one prospective job. Caller holds s.mu.
func (s *store) admitLocked(client, host string, lim admitLimits) error {
	clientN, hostN := 0, 0
	for _, j := range s.jobs {
		if j.State != StateQueued && j.State != StateRunning {
			continue
		}
		if j.Client == client {
			clientN++
		}
		if host != "" && j.Host == host {
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
	if lim.QueueCap > 0 && s.queue.Len() >= lim.QueueCap {
		return &admitError{RetryAfter: 30, Fault: Fault{
			Kind: "queue_full", Limit: int64(lim.QueueCap),
			Message: fmt.Sprintf("queue at capacity (%d jobs)", s.queue.Len()),
		}}
	}
	return nil
}

// accept admits a new job: admission caps, then WAL, then the job table and
// run queue, all under one lock acquisition so N racing submissions cannot
// collectively overshoot the caps. When the result cache already holds the
// key, the job is journaled as accept+done and returned already terminal —
// the caller serves it immediately, no worker ever sees it, and the caps
// are not charged (a cache hit consumes no queue or solver capacity). The
// returned JobInfo is a snapshot taken under the lock: once accept returns
// a worker may already be running the job, so the caller must not read
// the job's mutable fields itself.
func (s *store) accept(spec jobSpec, priority int, client, host string, timeout time.Duration, lim admitLimits) (*job, JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &job{
		ID:       fmt.Sprintf("j%06d", s.nextID),
		Key:      spec.Key(),
		Spec:     spec,
		Priority: priority,
		Client:   client,
		Host:     host,
		Timeout:  timeout,
		seq:      s.seq,
		State:    StateQueued,
	}
	cachedSHA, hit := s.results[j.Key]
	j.Cached = hit
	if !hit {
		if err := s.admitLocked(client, host, lim); err != nil {
			return nil, JobInfo{}, err
		}
	}
	rec := walRecord{
		Kind: "accept", ID: j.ID, Spec: &spec,
		Priority: priority, Client: client, Host: host,
		TimeoutMS: timeout.Milliseconds(), Cached: hit,
	}
	//lint:ignore lock-blocking append-before-effect: admission, the accept record, and the table/queue insert must be one atomic section under s.mu or racing submissions overshoot the caps
	if err := s.append(rec); err != nil {
		return nil, JobInfo{}, err
	}
	if hit {
		if err := s.append(walRecord{Kind: "done", ID: j.ID, SHA: cachedSHA}); err != nil {
			return nil, JobInfo{}, err
		}
		j.State = StateDone
		j.ArtifactSHA = cachedSHA
	}
	s.nextID++
	s.seq++
	s.jobs[j.ID] = j
	if !hit {
		heap.Push(&s.queue, j)
	}
	s.pruneLocked()
	s.maybeCompactLocked()
	return j, j.info(), nil
}

// next pops the highest-priority queued job and marks it running. Running
// state is memory-only on purpose: a crash mid-run leaves the WAL at
// "accept", which is exactly the record that re-queues it on restart.
func (s *store) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queue.Len() == 0 {
		return nil
	}
	j := heap.Pop(&s.queue).(*job)
	j.State = StateRunning
	return j
}

// complete journals and applies a successful terminal transition.
func (s *store) complete(j *job, artifactSHA string, wall time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wallMS := wall.Milliseconds()
	//lint:ignore lock-blocking append-before-effect: the done record must be durable before the terminal transition it describes, atomically under s.mu
	if err := s.append(walRecord{Kind: "done", ID: j.ID, SHA: artifactSHA, WallMS: wallMS}); err != nil {
		return err
	}
	j.State = StateDone
	j.ArtifactSHA = artifactSHA
	j.WallMS = wallMS
	s.results[j.Key] = artifactSHA
	s.pruneLocked()
	s.maybeCompactLocked()
	return nil
}

// fail journals and applies a typed failure.
func (s *store) fail(j *job, kind, msg string, wall time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wallMS := wall.Milliseconds()
	//lint:ignore lock-blocking append-before-effect: the fail record must be durable before the terminal transition it describes, atomically under s.mu
	if err := s.append(walRecord{Kind: "fail", ID: j.ID, ErrKind: kind, Error: msg, WallMS: wallMS}); err != nil {
		return err
	}
	j.State = StateFailed
	j.ErrKind = kind
	j.ErrMsg = msg
	j.WallMS = wallMS
	s.pruneLocked()
	s.maybeCompactLocked()
	return nil
}

// pruneLocked bounds the in-memory job table (and, via compaction, the
// WAL): beyond retain terminal jobs, the oldest are forgotten. Their
// artifacts and result-cache entries survive — only the /v1/jobs status
// row goes away. Caller holds s.mu.
func (s *store) pruneLocked() {
	var term []*job
	for _, j := range s.jobs {
		switch j.State {
		case StateDone, StateFailed, StateShed:
			term = append(term, j)
		}
	}
	if len(term) <= s.retain {
		return
	}
	sort.Slice(term, func(i, k int) bool { return term[i].seq < term[k].seq })
	for _, j := range term[:len(term)-s.retain] {
		delete(s.jobs, j.ID)
	}
}

// liveRecordsLocked counts the WAL records a compacted journal would hold:
// one meta record, one per cache entry, and one or two per retained job.
func (s *store) liveRecordsLocked() int {
	n := 1 + len(s.results)
	for _, j := range s.jobs {
		n++
		switch j.State {
		case StateDone, StateFailed, StateShed:
			n++
		}
	}
	return n
}

// maybeCompactLocked rewrites the WAL once enough records have accumulated
// since the last rewrite. Compaction failing must not fail the journaled
// transition that triggered it (that transition is already durable), so
// errors are logged and retried on a later trigger. Caller holds s.mu.
func (s *store) maybeCompactLocked() {
	if s.recsSinceCompact < s.compactEvery {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.logf("WAL compaction failed (will retry): %v", err)
	}
}

// compactLocked atomically replaces the WAL with live state only: a meta
// record pinning the ID counter, the verified result-cache index, and an
// accept (plus terminal) record for every retained job in admission order.
// Replaying the rewritten journal reproduces the current tables exactly —
// including re-queueing jobs that are queued or running right now, which is
// the same contract crash replay already relies on. Caller holds s.mu.
func (s *store) compactLocked() error {
	var buf bytes.Buffer
	frame := func(rec walRecord) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("graphiod: marshal WAL record: %w", err)
		}
		f, err := persist.FrameRecord(b)
		if err != nil {
			return err
		}
		buf.Write(f)
		return nil
	}
	//lint:ignore lock-blocking compaction must snapshot and swap the journal against a frozen table; it runs under s.mu by contract and is amortized by compactEvery
	if err := frame(walRecord{Kind: "meta", NextID: s.nextID}); err != nil {
		return err
	}
	keys := make([]string, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := frame(walRecord{Kind: "result", Key: k, SHA: s.results[k]}); err != nil {
			return err
		}
	}
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	for _, j := range jobs {
		spec := j.Spec
		if err := frame(walRecord{
			Kind: "accept", ID: j.ID, Spec: &spec,
			Priority: j.Priority, Client: j.Client, Host: j.Host,
			TimeoutMS: j.Timeout.Milliseconds(), Cached: j.Cached,
		}); err != nil {
			return err
		}
		var terminal *walRecord
		switch j.State {
		case StateDone:
			terminal = &walRecord{Kind: "done", ID: j.ID, SHA: j.ArtifactSHA, WallMS: j.WallMS}
		case StateFailed:
			terminal = &walRecord{Kind: "fail", ID: j.ID, ErrKind: j.ErrKind, Error: j.ErrMsg, WallMS: j.WallMS}
		case StateShed:
			terminal = &walRecord{Kind: "shed", ID: j.ID}
		}
		if terminal != nil {
			if err := frame(*terminal); err != nil {
				return err
			}
		}
	}
	// Swap the journal: close, atomic-replace, reopen. WriteFileAtomic's
	// temp+rename keeps the old journal intact on failure, so a failed
	// rewrite degrades to an uncompacted (still correct) WAL.
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("graphiod: compact WAL: %w", err)
	}
	writeErr := persist.WriteFileAtomic(walPath(s.dir), buf.Bytes(), 0o644)
	wal, _, openErr := persist.OpenJournal(walPath(s.dir))
	if openErr != nil {
		return fmt.Errorf("graphiod: reopen WAL after compaction: %w", openErr)
	}
	s.wal = wal
	if writeErr != nil {
		return fmt.Errorf("graphiod: compact WAL: %w", writeErr)
	}
	s.recsSinceCompact = 0
	return nil
}

// shedLowest drops the lowest-priority queued job (newest first within a
// priority) and journals the drop. Returns nil when the queue is empty.
func (s *store) shedLowest() (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queue.Len() == 0 {
		return nil, nil
	}
	worst := 0
	for i := 1; i < s.queue.Len(); i++ {
		a, b := s.queue[i], s.queue[worst]
		if a.Priority < b.Priority || (a.Priority == b.Priority && a.seq > b.seq) {
			worst = i
		}
	}
	j := s.queue[worst]
	//lint:ignore lock-blocking append-before-effect: the shed record must be durable before the job leaves the queue, atomically under s.mu
	if err := s.append(walRecord{Kind: "shed", ID: j.ID}); err != nil {
		return nil, err
	}
	heap.Remove(&s.queue, worst)
	j.State = StateShed
	s.pruneLocked()
	s.maybeCompactLocked()
	return j, nil
}

// depth returns the number of queued (not yet running) jobs.
func (s *store) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// get returns a snapshot of one job's wire info.
func (s *store) get(id string) (JobInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return j.info(), true
}

// list returns every job's wire info, in submission order.
func (s *store) list() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.info())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// cachedSHA returns the verified artifact hash for a key, if completed.
func (s *store) cachedSHA(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sha, ok := s.results[key]
	return sha, ok
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
// expiring an artifact a "done" record still names would make WAL replay
// re-queue (and re-run) that job, so the TTL only reaps artifacts that
// outlived their status row — the ones retention explicitly left behind as
// cache. The matching result-cache entry is evicted in the same critical
// section, and the unlink happens under s.mu too: a concurrent accept for
// the same key then strictly either hits the cache before the sweep or
// misses after it, never reads a half-expired entry. (Worst case after a
// crash, up to walCompactSlack dead records can still name a reaped
// artifact; replay then re-runs those jobs, the same contract as a missing
// or corrupt artifact.)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned := make(map[string]bool, len(s.jobs))
	for _, j := range s.jobs {
		pinned[j.Key] = true
	}
	removed := 0
	for _, key := range stale {
		if pinned[key] {
			continue
		}
		if err := os.Remove(artifactPath(s.dir, key)); err != nil && !os.IsNotExist(err) {
			s.logf("artifact GC: %v", err)
			continue
		}
		delete(s.results, key)
		removed++
	}
	return removed, nil
}

// jobHeap orders queued jobs by (priority desc, admission order asc).
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(*job)) }

func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
