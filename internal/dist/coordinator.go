package dist

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"graphio/internal/jobs"
	"graphio/internal/obs"
)

// Sink is where shard outcomes land. *experiments.Merge satisfies it
// exactly; tests substitute an in-memory recorder. Every method must be
// safe for concurrent use — the coordinator's HTTP handlers call them as
// uploads arrive.
type Sink interface {
	// Reusable reports whether a prior artifact for the shard still
	// verifies, in which case the coordinator marks it done without
	// granting it (the -resume skip path).
	Reusable(name string) bool
	// CommitResult durably merges one completed shard (last-write-wins on
	// repeats). An error means the upload was rejected or could not be
	// made durable; the coordinator keeps the shard unresolved.
	CommitResult(name, title string, csv []byte, wallMS int64, worker string) error
	// CommitFailure records one failed attempt (audit trail, not a verdict).
	CommitFailure(name string, wallMS int64, cause error, worker string) error
	// CommitPoisoned records that the sweep gave up on the shard.
	CommitPoisoned(name string, attempts int, cause error) error
}

// Config configures a Coordinator.
type Config struct {
	// Shards are the experiment names to distribute, in canonical
	// (Runners()) order.
	Shards []string
	// ConfigHash pins the sweep: claims and uploads carrying a different
	// hash are rejected with 409 so a misconfigured worker cannot pollute
	// the results.
	ConfigHash string
	// Sink receives shard outcomes.
	Sink Sink
	// OutDir holds the WAL (dist.json). Usually the sweep's output
	// directory, next to manifest.json.
	OutDir string
	// Resume replays an existing WAL, restoring assignment state from a
	// crashed coordinator; otherwise any prior WAL is discarded.
	Resume bool
	// LeaseTTL is how long a granted shard stays owned without a renewal.
	// Default 30s.
	LeaseTTL time.Duration
	// MaxAttempts caps grants per shard before it is poisoned. Default 3.
	MaxAttempts int
	// RetryDelay is the base of the exponential re-queue backoff after a
	// failed or expired attempt. Default 1s.
	RetryDelay time.Duration
	// AuthToken, when non-empty, requires every request to carry
	// "Authorization: Bearer <token>" (shared with workers via
	// WorkerConfig.AuthToken / GRAPHIO_TOKEN). Token check only; transport
	// encryption is out of scope.
	AuthToken string
	// WallHistory maps shard names to their wall time in a prior run
	// (experiments.Merge.WallHistory provides it from the manifest). When
	// non-empty the coordinator grants the slowest known shards first (LPT
	// scheduling), shrinking sweep makespan: without it a long shard
	// granted last leaves one worker grinding while the rest idle.
	WallHistory map[string]time.Duration
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// walName is the coordinator's journal, kept in OutDir beside the sweep
// manifest: a jobs.Table WAL whose tasks are the shards.
const walName = "dist.json"

// shardStatus maps job-table states to the /v1/state shard statuses.
var shardStatus = map[string]string{
	jobs.Queued: StatePending, jobs.Running: StateLeased,
	jobs.Done: StateDone, jobs.Failed: StatePoisoned,
}

// shard is a sweep shard as the job table holds it: the task ID is the
// shard name, and it carries no data of its own.
type shard = jobs.Task[struct{}]

// Coordinator shards a sweep across workers: it serves the claim
// protocol over a leased job table and funnels outcomes into the Sink.
type Coordinator struct {
	cfg   Config
	scope *obs.Scope
	table *jobs.Table[struct{}]

	mu     sync.Mutex
	scopes map[string]*obs.Scope // per shard: open while unresolved and at least once granted

	srv       *http.Server
	serveDone chan struct{} // closed when the Serve goroutine exits
}

// New opens (or, with cfg.Resume, replays) the WAL and returns a
// coordinator ready to serve. Open leases come back with a fresh TTL, so a
// surviving worker keeps renewing unaware of the outage. Shards whose
// artifacts the Sink already verifies are done up front, the distributed
// analogue of the -resume skip.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("dist: no shards to coordinate")
	}
	if cfg.Sink == nil {
		return nil, errors.New("dist: Config.Sink is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = time.Second
	}
	cfg.Shards = append([]string(nil), cfg.Shards...) // canonical (display/snapshot) order
	walPath := filepath.Join(cfg.OutDir, walName)
	if !cfg.Resume {
		if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	c := &Coordinator{
		cfg:    cfg,
		scope:  obs.NewScope("dist"),
		scopes: map[string]*obs.Scope{},
	}
	table, err := jobs.Open(walPath, jobs.Options[struct{}]{
		// The WAL says done, but the restarted sink has not seen the result
		// — and the artifact could have vanished in the outage. Re-verify
		// through the sink, which reloads the table for the final report
		// on success; on failure the shard re-queues.
		Verify: func(name, _ string) bool {
			if cfg.Sink.Reusable(name) {
				return true
			}
			c.logf("dist: shard %s done in the WAL but its artifact no longer verifies; re-queuing", name)
			return false
		},
		Failed:      c.failed,
		LeaseTTL:    cfg.LeaseTTL,
		MaxAttempts: cfg.MaxAttempts,
		RetryDelay:  cfg.RetryDelay,
		Logf:        c.logf,
	})
	if err != nil {
		c.scope.Close()
		return nil, fmt.Errorf("dist: %w (run without -resume to start the sweep over)", err)
	}
	c.table = table
	if err := c.recover(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// recover reconciles the replayed table with the shard list: it refuses a
// WAL from a different sweep, repopulates the sink's poisoned set, and
// accepts every shard the WAL does not know yet — done at once when the
// Sink already verifies its artifact.
func (c *Coordinator) recover() error {
	replayed := 0
	for _, s := range c.table.List() {
		if !slices.Contains(c.cfg.Shards, s.ID) {
			// A WAL written by a sweep over a different shard set: refuse
			// rather than silently dropping assignment state.
			return fmt.Errorf("dist: WAL names unknown shard %q (stale dist.json? run without -resume)", s.ID)
		}
		switch s.State {
		case jobs.Running:
			c.logf("dist: restored lease %s on %s (worker %s, fresh TTL)", s.Lease, s.ID, s.Owner)
			c.openScope(s.ID)
		case jobs.Failed:
			// Repopulate the sink's poisoned set so the final report still
			// names the shard after a coordinator restart.
			if err := c.cfg.Sink.CommitPoisoned(s.ID, s.Attempts, errors.New(s.Err)); err != nil {
				return err
			}
		case jobs.Queued:
			continue
		}
		replayed++
	}
	if replayed > 0 {
		c.logf("dist: WAL replayed %d resolved/in-flight shard(s)", replayed)
	}
	for _, name := range c.cfg.Shards {
		// Grants go longest processing time first (LPT): shards with no
		// recorded wall time outrank the rest, so their unknown cost starts
		// early, and known shards rank by wall time, so the slowest never
		// lands on the sweep's tail. Ties keep canonical (accept) order. A
		// replayed shard is re-ranked from this run's history.
		priority := math.MaxInt
		if d, known := c.cfg.WallHistory[name]; known {
			priority = int(d)
		}
		s, ok := c.table.Get(name)
		if ok {
			c.table.Reprioritize(name, priority)
		} else {
			var err error
			if s, err = c.table.Accept(name, priority, struct{}{}, nil); err != nil {
				return err
			}
		}
		// A queued shard may already have a verified artifact (a prior
		// sweep, or work that completed before a crash the WAL missed the
		// tail of): skip it exactly like a single-process -resume would.
		if s.State == jobs.Queued && c.cfg.Sink.Reusable(name) {
			if err := c.table.Complete(name, "", 0, nil); err != nil {
				return err
			}
			c.logf("dist: shard %s reused (artifact verified)", name)
			c.scope.Inc("dist.reused")
		}
	}
	return nil
}

// failed records a burned attempt, a worker's failure report or a lapsed
// lease, in the sink, and poisons the shard if that was its last. The
// table runs it under its lock, in the same step as the transition, so
// neither Wait nor a late upload sees the new state before the sink does;
// both records are small manifest appends, not CSV merges.
func (c *Coordinator) failed(s shard) {
	if s.ErrKind == jobs.KindExpired {
		c.scope.Inc("dist.expirations")
	} else {
		c.scope.Inc("dist.failures")
	}
	c.logf("dist: shard %s attempt %d failed on %s: %s", s.ID, s.Attempts, s.Owner, s.Err)
	if err := c.cfg.Sink.CommitFailure(s.ID, s.WallMS, errors.New(s.Err), s.Owner); err != nil {
		c.logf("dist: recording failure of %s: %v", s.ID, err)
	}
	if s.State != jobs.Failed {
		return
	}
	if err := c.cfg.Sink.CommitPoisoned(s.ID, s.Attempts, errors.New(s.Err)); err != nil {
		c.logf("dist: poisoning %s: %v", s.ID, err)
	}
	c.closeScope(s.ID)
	c.scope.Inc("dist.poisoned")
	c.logf("dist: shard %s poisoned after %d attempt(s): %s", s.ID, s.Attempts, s.Err)
}

func (c *Coordinator) openScope(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scopes[name] == nil {
		c.scopes[name] = c.scope.Child(name)
	}
}

func (c *Coordinator) closeScope(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scopes[name].Close()
	delete(c.scopes, name)
}

// Handler returns the coordinator's HTTP API (bearer-token guarded when
// Config.AuthToken is set).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathClaim, c.handleClaim)
	mux.HandleFunc("POST "+PathRenew, c.handleRenew)
	mux.HandleFunc("POST "+PathComplete, c.handleComplete)
	mux.HandleFunc("POST "+PathFail, c.handleFail)
	mux.HandleFunc("GET "+PathState, c.handleState)
	if c.cfg.AuthToken == "" {
		return mux
	}
	want := []byte("Bearer " + c.cfg.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// maxBody bounds request bodies; the largest legitimate payload is a CSV
// table upload, far under this.
const maxBody = 64 << 20

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		http.Error(w, "decoding body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ConfigHash != c.cfg.ConfigHash {
		http.Error(w, fmt.Sprintf("config hash mismatch: coordinator sweeps %s, worker configured for %s",
			c.cfg.ConfigHash, req.ConfigHash), http.StatusConflict)
		return
	}
	s, ok, err := c.table.Claim(req.Worker)
	if err != nil {
		http.Error(w, "journaling grant: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		pending, next := c.table.Pending()
		if pending == 0 {
			reply(w, ClaimResponse{Status: ClaimDone})
			return
		}
		retry := 500 * time.Millisecond
		if !next.IsZero() {
			retry = min(retry, next.Sub(obs.Now()))
		}
		reply(w, ClaimResponse{Status: ClaimWait, RetryMS: max(retry, 50*time.Millisecond).Milliseconds()})
		return
	}
	c.openScope(s.ID)
	c.scope.Inc("dist.claims")
	c.logf("dist: shard %s -> worker %s (lease %s, attempt %d/%d)", s.ID, req.Worker, s.Lease, s.Attempts, c.cfg.MaxAttempts)
	reply(w, ClaimResponse{
		Status: ClaimShard, Shard: s.ID, Lease: s.Lease,
		LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds(), Attempt: s.Attempts,
	})
}

// handleRenew extends a held lease. Renewals are in-memory only: a
// restarted coordinator re-arms every open lease with a fresh TTL.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decode(w, r, &req) {
		return
	}
	if c.table.Renew(req.Shard, req.Lease) {
		c.scope.Inc("dist.renewals")
		reply(w, RenewResponse{OK: true})
	} else if _, ok := c.table.Get(req.Shard); !ok {
		reply(w, RenewResponse{Reason: "unknown shard"})
	} else {
		c.scope.Inc("dist.renewals_rejected")
		reply(w, RenewResponse{Reason: "lease not held (expired and reassigned, or shard resolved)"})
	}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	if req.ConfigHash != c.cfg.ConfigHash {
		http.Error(w, "config hash mismatch", http.StatusConflict)
		return
	}
	s, ok := c.table.Get(req.Shard)
	if !ok {
		http.Error(w, "unknown shard "+req.Shard, http.StatusBadRequest)
		return
	}
	// Uploads are accepted regardless of lease state: the result is a pure
	// function of the config hash both sides verified, so a late upload
	// from an expired lease (or a retry after a lost response) merges
	// last-write-wins instead of being dropped. That is what makes the
	// half-open failure mode converge.
	stale := s.State != jobs.Running || s.Lease != req.Lease || s.Owner != req.Worker

	// CommitResult fsyncs a potentially multi-megabyte CSV, so it runs
	// outside every lock. The Sink contract requires concurrent safety and
	// the merge is last-write-wins, so two racing uploads of one shard
	// converge in either order.
	commit := func() error {
		return c.cfg.Sink.CommitResult(req.Shard, req.Title, req.CSV, req.WallMS, req.Worker)
	}
	if err := commit(); err != nil {
		// Rejected (garbage CSV) or not durable: the shard stays unresolved.
		http.Error(w, "committing result: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// The shard may have changed state meanwhile (expiry, even poisoning);
	// a durable verified result still wins. If an attempt failed since s,
	// its sink records may postdate the result, so the result is committed
	// again under the table lock: last, and before the shard turns done.
	err := c.table.Complete(req.Shard, "", time.Duration(req.WallMS)*time.Millisecond, func(now shard) error {
		if now.State == s.State && now.Attempts == s.Attempts {
			return nil
		}
		return commit()
	})
	if err != nil {
		http.Error(w, "journaling completion: "+err.Error(), http.StatusInternalServerError)
		return
	}
	c.closeScope(req.Shard)
	c.scope.Inc("dist.completions")
	if stale {
		c.scope.Inc("dist.late_uploads")
		c.logf("dist: shard %s completed by %s on a lost lease (merged last-write-wins)", req.Shard, req.Worker)
	} else {
		c.logf("dist: shard %s completed by %s (%dms)", req.Shard, req.Worker, req.WallMS)
	}
	reply(w, CompleteResponse{OK: true, Stale: stale})
}

// handleFail burns the reported attempt: the shard re-queues with
// backoff, or is poisoned once its attempts are exhausted.
func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decode(w, r, &req) {
		return
	}
	// The table hands a held claim's failure to c.failed. A report on a
	// claim no longer held (expired or reassigned) is news from the past:
	// acknowledged, and it changes nothing.
	s, err := c.table.Fail(req.Shard, req.Lease, "", req.Error, time.Duration(req.WallMS)*time.Millisecond)
	if s.ID == "" {
		http.Error(w, "unknown shard "+req.Shard, http.StatusBadRequest)
		return
	}
	if err != nil {
		c.logf("dist: WAL fail %s: %v", req.Shard, err)
	}
	reply(w, FailResponse{OK: true, Poisoned: s.State == jobs.Failed})
}

func (c *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	reply(w, c.Snapshot())
}

// Snapshot returns the current shard states (the /v1/state body).
func (c *Coordinator) Snapshot() StateResponse {
	byName := map[string]shard{}
	for _, s := range c.table.List() {
		byName[s.ID] = s
	}
	now := obs.Now()
	resp := StateResponse{Done: true, ConfigHash: c.cfg.ConfigHash}
	for _, name := range c.cfg.Shards {
		s := byName[name]
		info := ShardInfo{Name: name, Status: shardStatus[s.State], Attempts: s.Attempts, Error: s.Err}
		if s.State == jobs.Running {
			info.Worker = s.Owner
			info.LeaseMSLeft = s.Expiry.Sub(now).Milliseconds()
		}
		if s.State != jobs.Done && s.State != jobs.Failed {
			resp.Done = false
		}
		resp.Shards = append(resp.Shards, info)
	}
	return resp
}

// Poisoned returns the shards the sweep has given up on, in canonical order.
func (c *Coordinator) Poisoned() []string {
	var names []string
	for _, s := range c.Snapshot().Shards {
		if s.Status == StatePoisoned {
			names = append(names, s.Name)
		}
	}
	return names
}

// Start begins serving on addr (":0" picks a free port) and returns the
// bound address workers should dial.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.srv = &http.Server{Handler: c.Handler()}
	c.serveDone = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		_ = c.srv.Serve(ln)
	}(c.serveDone)
	c.logf("dist: coordinator serving on %s (%d shard(s), lease TTL %v)", ln.Addr(), len(c.cfg.Shards), c.cfg.LeaseTTL)
	return ln.Addr().String(), nil
}

// Wait blocks until every shard is resolved (done or poisoned) or ctx is
// cancelled, expiring leases as it goes so progress does not depend on
// worker traffic.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := min(max(c.cfg.LeaseTTL/4, 10*time.Millisecond), time.Second)
	return c.table.Wait(ctx, tick)
}

// Close stops the server (if started), closes the coordinator's telemetry
// scopes, and closes the WAL. Committed state is already durable; a
// coordinator that dies without Close loses nothing the WAL has not
// recorded.
func (c *Coordinator) Close() {
	if c.srv != nil {
		_ = c.srv.Close()
		// Join the Serve goroutine so no handler races the WAL close below.
		<-c.serveDone
	}
	c.mu.Lock()
	for name, s := range c.scopes {
		s.Close()
		delete(c.scopes, name)
	}
	c.mu.Unlock()
	c.scope.Close()
	_ = c.table.Close()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}
