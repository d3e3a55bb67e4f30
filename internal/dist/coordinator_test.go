package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// memSink records Sink calls in memory — the coordinator's contract under
// test without dragging in the experiments package.
type memSink struct {
	mu       sync.Mutex
	results  map[string]memResult
	commits  map[string]int
	failures map[string][]string
	poisoned map[string]int
	reuse    map[string]bool
}

type memResult struct {
	title  string
	csv    []byte
	worker string
}

func newMemSink() *memSink {
	return &memSink{
		results:  map[string]memResult{},
		commits:  map[string]int{},
		failures: map[string][]string{},
		poisoned: map[string]int{},
		reuse:    map[string]bool{},
	}
}

func (s *memSink) Reusable(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reuse[name]
}

func (s *memSink) CommitResult(name, title string, csv []byte, wallMS int64, worker string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[name] = memResult{title: title, csv: append([]byte(nil), csv...), worker: worker}
	s.commits[name]++
	delete(s.poisoned, name)
	// Like the real sink: a durably committed result verifies as reusable
	// for a later replay.
	s.reuse[name] = true
	return nil
}

func (s *memSink) CommitFailure(name string, wallMS int64, cause error, worker string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failures[name] = append(s.failures[name], cause.Error())
	return nil
}

func (s *memSink) CommitPoisoned(name string, attempts int, cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.poisoned[name] = attempts
	delete(s.reuse, name)
	return nil
}

func (s *memSink) result(name string) (memResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[name]
	return r, ok
}

func (s *memSink) commitCount(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits[name]
}

func (s *memSink) failureCount(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.failures[name])
}

func (s *memSink) poisonedAttempts(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.poisoned[name]
	return n, ok
}

// expireLeases moves the clock past every live lease's deadline so the
// next request expires them — deterministic lease loss without waiting
// out a real TTL. The clock stays moved for the rest of the test.
func expireLeases(t *testing.T, c *Coordinator) {
	t.Helper()
	skew := c.cfg.LeaseTTL + time.Second
	obs.SetClock(func() time.Time { return time.Now().Add(skew) })
	t.Cleanup(func() { obs.SetClock(nil) })
}

// postJSON posts body to url and decodes a 200 response into into.
// Non-200 statuses are returned with the body as the error text.
func postJSON(t *testing.T, url string, body, into any) (int, error) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(buf.String()))
	}
	return resp.StatusCode, json.Unmarshal(buf.Bytes(), into)
}

// claimUntilShard polls claim until a shard is granted (retry/backoff is
// the coordinator's answer while leases run out or backoff gates hold).
func claimUntilShard(t *testing.T, url, worker, hash string) ClaimResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var resp ClaimResponse
		if _, err := postJSON(t, url+PathClaim, ClaimRequest{Worker: worker, ConfigHash: hash}, &resp); err != nil {
			t.Fatal(err)
		}
		switch resp.Status {
		case ClaimShard:
			return resp
		case ClaimDone:
			t.Fatalf("claim for %s returned done while a shard was expected", worker)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no shard granted to %s within deadline", worker)
	return ClaimResponse{}
}

func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	if cfg.OutDir == "" {
		cfg.OutDir = t.TempDir()
	}
	if cfg.Sink == nil {
		cfg.Sink = newMemSink()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(c.Close)
	return c, srv.URL
}

func TestCoordinatorProtocolHappyPath(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha", "beta"}, ConfigHash: "h1", Sink: sink,
	})
	for i, want := range []string{"alpha", "beta"} {
		var claim ClaimResponse
		if _, err := postJSON(t, url+PathClaim, ClaimRequest{Worker: "w1", ConfigHash: "h1"}, &claim); err != nil {
			t.Fatal(err)
		}
		if claim.Status != ClaimShard || claim.Shard != want || claim.Attempt != 1 {
			t.Fatalf("claim %d = %+v, want shard %s attempt 1", i, claim, want)
		}
		var renew RenewResponse
		if _, err := postJSON(t, url+PathRenew, RenewRequest{Worker: "w1", Shard: want, Lease: claim.Lease}, &renew); err != nil {
			t.Fatal(err)
		}
		if !renew.OK {
			t.Fatalf("renewal of live lease rejected: %+v", renew)
		}
		var done CompleteResponse
		if _, err := postJSON(t, url+PathComplete, CompleteRequest{
			Worker: "w1", Shard: want, Lease: claim.Lease, ConfigHash: "h1",
			Title: "t " + want, CSV: []byte("k,v\n1,2\n"), WallMS: 3,
		}, &done); err != nil {
			t.Fatal(err)
		}
		if !done.OK || done.Stale {
			t.Fatalf("complete = %+v, want ok and not stale", done)
		}
	}
	var claim ClaimResponse
	if _, err := postJSON(t, url+PathClaim, ClaimRequest{Worker: "w1", ConfigHash: "h1"}, &claim); err != nil {
		t.Fatal(err)
	}
	if claim.Status != ClaimDone {
		t.Fatalf("claim after all shards = %+v, want done", claim)
	}
	snap := c.Snapshot()
	if !snap.Done {
		t.Fatalf("snapshot not done: %+v", snap)
	}
	for _, name := range []string{"alpha", "beta"} {
		r, ok := sink.result(name)
		if !ok || r.worker != "w1" {
			t.Fatalf("sink missing result for %s (got %+v)", name, r)
		}
	}
}

func TestCoordinatorRejectsConfigHashMismatch(t *testing.T) {
	_, url := newTestCoordinator(t, Config{Shards: []string{"alpha"}, ConfigHash: "good"})
	var claim ClaimResponse
	status, err := postJSON(t, url+PathClaim, ClaimRequest{Worker: "w1", ConfigHash: "evil"}, &claim)
	if status != http.StatusConflict {
		t.Fatalf("mismatched claim: status %d (err %v), want 409", status, err)
	}
	var done CompleteResponse
	status, _ = postJSON(t, url+PathComplete, CompleteRequest{
		Worker: "w1", Shard: "alpha", Lease: "L000001", ConfigHash: "evil", CSV: []byte("k\n1\n"),
	}, &done)
	if status != http.StatusConflict {
		t.Fatalf("mismatched complete: status %d, want 409", status)
	}
}

func TestCoordinatorFailBurnsAttemptsThenPoisons(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
		MaxAttempts: 2, RetryDelay: time.Millisecond,
	})
	for attempt := 1; attempt <= 2; attempt++ {
		claim := claimUntilShard(t, url, "w1", "h")
		if claim.Attempt != attempt {
			t.Fatalf("grant attempt = %d, want %d", claim.Attempt, attempt)
		}
		var fail FailResponse
		if _, err := postJSON(t, url+PathFail, FailRequest{
			Worker: "w1", Shard: "alpha", Lease: claim.Lease, Error: "solver exploded", WallMS: 1,
		}, &fail); err != nil {
			t.Fatal(err)
		}
		if wantPoison := attempt == 2; fail.Poisoned != wantPoison {
			t.Fatalf("attempt %d: poisoned = %v, want %v", attempt, fail.Poisoned, wantPoison)
		}
	}
	if n, ok := sink.poisonedAttempts("alpha"); !ok || n != 2 {
		t.Fatalf("sink poisoned = (%d, %v), want (2, true)", n, ok)
	}
	if sink.failureCount("alpha") != 2 {
		t.Fatalf("failure records = %d, want 2", sink.failureCount("alpha"))
	}
	var claim ClaimResponse
	if _, err := postJSON(t, url+PathClaim, ClaimRequest{Worker: "w1", ConfigHash: "h"}, &claim); err != nil {
		t.Fatal(err)
	}
	if claim.Status != ClaimDone {
		t.Fatalf("claim after poison = %+v, want done (poisoned resolves the sweep)", claim)
	}
	if got := c.Poisoned(); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("Poisoned() = %v, want [alpha]", got)
	}
}

func TestCoordinatorExpiredLeaseIsReassigned(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
		MaxAttempts: 3, RetryDelay: time.Millisecond,
	})
	obs.Enable(true)
	defer obs.Enable(false)
	first := claimUntilShard(t, url, "w1", "h")
	expireLeases(t, c)
	second := claimUntilShard(t, url, "w2", "h")
	if second.Attempt != 2 || second.Lease == first.Lease {
		t.Fatalf("reassigned grant = %+v, want attempt 2 under a new lease", second)
	}
	// The dead worker's renewal must now be rejected.
	var renew RenewResponse
	if _, err := postJSON(t, url+PathRenew, RenewRequest{Worker: "w1", Shard: "alpha", Lease: first.Lease}, &renew); err != nil {
		t.Fatal(err)
	}
	if renew.OK {
		t.Fatal("renewal of an expired, reassigned lease succeeded")
	}
	if sink.failureCount("alpha") != 1 {
		t.Fatalf("expiry did not land an audit failure (count %d)", sink.failureCount("alpha"))
	}
	if got := c.scope.Counter("dist.expirations"); got != 1 {
		t.Fatalf("dist.expirations = %d, want 1", got)
	}
}

func TestCoordinatorLateUploadMergesLastWriteWins(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
		MaxAttempts: 3, RetryDelay: time.Millisecond,
	})
	obs.Enable(true)
	defer obs.Enable(false)
	first := claimUntilShard(t, url, "w1", "h")
	expireLeases(t, c)
	second := claimUntilShard(t, url, "w2", "h")
	var done CompleteResponse
	if _, err := postJSON(t, url+PathComplete, CompleteRequest{
		Worker: "w2", Shard: "alpha", Lease: second.Lease, ConfigHash: "h",
		Title: "t", CSV: []byte("k\nfresh\n"), WallMS: 2,
	}, &done); err != nil {
		t.Fatal(err)
	}
	if !done.OK || done.Stale {
		t.Fatalf("live complete = %+v", done)
	}
	// w1 finally finishes and uploads on its long-dead lease: accepted,
	// flagged stale, merged last-write-wins.
	if _, err := postJSON(t, url+PathComplete, CompleteRequest{
		Worker: "w1", Shard: "alpha", Lease: first.Lease, ConfigHash: "h",
		Title: "t", CSV: []byte("k\nlate\n"), WallMS: 9,
	}, &done); err != nil {
		t.Fatal(err)
	}
	if !done.OK || !done.Stale {
		t.Fatalf("late complete = %+v, want ok and stale", done)
	}
	r, _ := sink.result("alpha")
	if r.worker != "w1" || !bytes.Contains(r.csv, []byte("late")) {
		t.Fatalf("last write did not win: %+v", r)
	}
	if sink.commitCount("alpha") != 2 {
		t.Fatalf("commits = %d, want 2 (double submit absorbed, not dropped)", sink.commitCount("alpha"))
	}
	if got := c.scope.Counter("dist.late_uploads"); got != 1 {
		t.Fatalf("dist.late_uploads = %d, want 1", got)
	}
}

func TestCoordinatorWALReplayRestoresAssignments(t *testing.T) {
	outDir := t.TempDir()
	sink := newMemSink()
	cfg := Config{
		Shards: []string{"alpha", "beta", "gamma"}, ConfigHash: "h", Sink: sink,
		OutDir: outDir, MaxAttempts: 3, RetryDelay: time.Millisecond,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	a := claimUntilShard(t, srv1.URL, "w1", "h")
	var done CompleteResponse
	if _, err := postJSON(t, srv1.URL+PathComplete, CompleteRequest{
		Worker: "w1", Shard: a.Shard, Lease: a.Lease, ConfigHash: "h",
		Title: "t", CSV: []byte("k\n1\n"), WallMS: 1,
	}, &done); err != nil {
		t.Fatal(err)
	}
	b := claimUntilShard(t, srv1.URL, "w1", "h")
	if b.Shard != "beta" {
		t.Fatalf("second grant = %s, want beta", b.Shard)
	}
	// Crash: the coordinator dies with beta leased and gamma pending.
	srv1.Close()
	c1.Close()

	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	defer c2.Close()
	snap := c2.Snapshot()
	wantStates := map[string]string{"alpha": StateDone, "beta": StateLeased, "gamma": StatePending}
	for _, s := range snap.Shards {
		if s.Status != wantStates[s.Name] {
			t.Fatalf("after replay, %s = %s, want %s", s.Name, s.Status, wantStates[s.Name])
		}
	}
	// The surviving worker's renewal of the restored lease must still work,
	// and so must its upload.
	var renew RenewResponse
	if _, err := postJSON(t, srv2.URL+PathRenew, RenewRequest{Worker: "w1", Shard: "beta", Lease: b.Lease}, &renew); err != nil {
		t.Fatal(err)
	}
	if !renew.OK {
		t.Fatalf("renewal of replayed lease rejected: %+v", renew)
	}
	if _, err := postJSON(t, srv2.URL+PathComplete, CompleteRequest{
		Worker: "w1", Shard: "beta", Lease: b.Lease, ConfigHash: "h",
		Title: "t", CSV: []byte("k\n2\n"), WallMS: 1,
	}, &done); err != nil {
		t.Fatal(err)
	}
	if !done.OK || done.Stale {
		t.Fatalf("upload onto replayed lease = %+v, want ok and not stale", done)
	}
	// Lease sequence numbers continue past replayed grants — no reuse.
	g := claimUntilShard(t, srv2.URL, "w1", "h")
	if g.Shard != "gamma" || g.Lease == a.Lease || g.Lease == b.Lease {
		t.Fatalf("post-replay grant = %+v, want gamma under a fresh lease", g)
	}
}

func TestCoordinatorFreshStartDiscardsWAL(t *testing.T) {
	outDir := t.TempDir()
	cfg := Config{Shards: []string{"alpha"}, ConfigHash: "h", OutDir: outDir, Sink: newMemSink()}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	claimUntilShard(t, srv1.URL, "w1", "h")
	srv1.Close()
	c1.Close()
	// Without -resume, the prior WAL (with its open lease) is discarded:
	// the shard is granted again as attempt 1.
	c2, url := newTestCoordinator(t, cfg)
	claim := claimUntilShard(t, url, "w2", "h")
	if claim.Attempt != 1 {
		t.Fatalf("fresh-start grant attempt = %d, want 1", claim.Attempt)
	}
	_ = c2
}

// A dist.json in the older record format (one grant, complete, fail or
// poison record per transition, keyed by "shard", as the coordinator
// wrote before it ran on internal/jobs) must be refused on -resume,
// naming the file, rather than misread.
func TestCoordinatorRefusesOldFormatWAL(t *testing.T) {
	outDir := t.TempDir()
	var old bytes.Buffer
	for _, rec := range []string{
		`{"kind":"grant","shard":"alpha","worker":"w1","lease":"L000001","attempt":1}`,
		`{"kind":"complete","shard":"alpha","worker":"w1","lease":"L000001"}`,
		`{"kind":"grant","shard":"beta","worker":"w1","lease":"L000002","attempt":1}`,
	} {
		frame, err := persist.FrameRecord([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		old.Write(frame)
	}
	path := filepath.Join(outDir, walName)
	if err := persist.WriteFileAtomic(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Shards: []string{"alpha", "beta"}, ConfigHash: "h", Sink: newMemSink(), OutDir: outDir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("-resume on an old-format dist.json = %v, want an error naming %s", err, path)
	}
}

func TestCoordinatorSkipsReusableShards(t *testing.T) {
	sink := newMemSink()
	sink.reuse["alpha"] = true
	c, url := newTestCoordinator(t, Config{Shards: []string{"alpha", "beta"}, ConfigHash: "h", Sink: sink})
	claim := claimUntilShard(t, url, "w1", "h")
	if claim.Shard != "beta" {
		t.Fatalf("first grant = %s, want beta (alpha's artifact verified)", claim.Shard)
	}
	snap := c.Snapshot()
	if snap.Shards[0].Name != "alpha" || snap.Shards[0].Status != StateDone {
		t.Fatalf("reusable shard not marked done: %+v", snap.Shards[0])
	}
}

func TestCoordinatorPoisonSurvivesRestart(t *testing.T) {
	outDir := t.TempDir()
	cfg := Config{
		Shards: []string{"alpha", "beta"}, ConfigHash: "h", OutDir: outDir,
		Sink: newMemSink(), MaxAttempts: 1, RetryDelay: time.Millisecond,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	claim := claimUntilShard(t, srv1.URL, "w1", "h")
	var fail FailResponse
	if _, err := postJSON(t, srv1.URL+PathFail, FailRequest{
		Worker: "w1", Shard: claim.Shard, Lease: claim.Lease, Error: "boom",
	}, &fail); err != nil {
		t.Fatal(err)
	}
	if !fail.Poisoned {
		t.Fatalf("fail at the attempt cap = %+v, want poisoned", fail)
	}
	srv1.Close()
	c1.Close()

	// Restarting with -resume must re-commit the poison into the (fresh)
	// sink so the final report still names the shard.
	sink2 := newMemSink()
	cfg.Sink = sink2
	cfg.Resume = true
	c2, url := newTestCoordinator(t, cfg)
	if n, ok := sink2.poisonedAttempts("alpha"); !ok || n != 1 {
		t.Fatalf("poison not replayed into sink: (%d, %v)", n, ok)
	}
	if got := c2.Poisoned(); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("Poisoned() after restart = %v, want [alpha]", got)
	}
	if claim := claimUntilShard(t, url, "w1", "h"); claim.Shard != "beta" {
		t.Fatalf("post-restart grant = %s, want beta", claim.Shard)
	}
}

func TestCoordinatorStateEndpoint(t *testing.T) {
	_, url := newTestCoordinator(t, Config{Shards: []string{"alpha"}, ConfigHash: "h"})
	resp, err := http.Get(url + PathState)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state.Done || state.ConfigHash != "h" || len(state.Shards) != 1 || state.Shards[0].Status != StatePending {
		t.Fatalf("state = %+v", state)
	}
}
