package dist

// Regression tests for the concurrency fixes that the lock-blocking and
// goroutine-join lint rules drove: result commits must not run under a
// lock, Close must join the Serve goroutine, LPT claim ordering must
// follow the wall-time history, and the sink must hear of every failure
// in the same step as the shard's transition.

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBuildClaimOrderLPT(t *testing.T) {
	canonical := []string{"a", "b", "c", "d"}
	cases := []struct {
		name string
		hist map[string]time.Duration
		want []string
	}{
		{"no history keeps canonical order", nil, []string{"a", "b", "c", "d"}},
		{"known shards sort by descending wall time",
			map[string]time.Duration{"a": time.Second, "b": 4 * time.Second, "c": 2 * time.Second, "d": 3 * time.Second},
			[]string{"b", "d", "c", "a"}},
		{"unknown shards go first, in canonical order",
			map[string]time.Duration{"a": time.Second, "c": 2 * time.Second},
			[]string{"b", "d", "c", "a"}},
		{"ties stay in canonical order",
			map[string]time.Duration{"a": time.Second, "b": time.Second, "c": time.Second, "d": time.Second},
			[]string{"a", "b", "c", "d"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, url := newTestCoordinator(t, Config{Shards: canonical, ConfigHash: "h", WallHistory: c.hist})
			var got []string
			for range canonical {
				got = append(got, claimUntilShard(t, url, "w1", "h").Shard)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("claim order = %v, want %v", got, c.want)
			}
		})
	}
}

func TestClaimOrderFollowsWallHistory(t *testing.T) {
	_, url := newTestCoordinator(t, Config{
		Shards:     []string{"fast", "slow", "mid"},
		ConfigHash: "h",
		WallHistory: map[string]time.Duration{
			"fast": time.Second, "slow": 10 * time.Second, "mid": 5 * time.Second,
		},
	})
	for _, want := range []string{"slow", "mid", "fast"} {
		claim := claimUntilShard(t, url, "w1", "h")
		if claim.Shard != want {
			t.Fatalf("granted %s, want %s (LPT order)", claim.Shard, want)
		}
		var done CompleteResponse
		if _, err := postJSON(t, url+PathComplete, CompleteRequest{
			Worker: "w1", Shard: claim.Shard, Lease: claim.Lease, ConfigHash: "h",
			Title: claim.Shard, CSV: []byte("k,v\n"),
		}, &done); err != nil {
			t.Fatal(err)
		}
	}
}

// On -resume, replayed shards take their rank from this run's wall-time
// history, not from the one their WAL was first written under.
func TestResumeRanksReplayedShardsByCurrentHistory(t *testing.T) {
	dir := t.TempDir()
	shards := []string{"a", "b", "c"}
	c, err := New(Config{Shards: shards, ConfigHash: "h", Sink: newMemSink(), OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	_, url := newTestCoordinator(t, Config{
		Shards: shards, ConfigHash: "h", OutDir: dir, Resume: true,
		WallHistory: map[string]time.Duration{"a": time.Second, "b": 3 * time.Second, "c": 2 * time.Second},
	})
	var got []string
	for range shards {
		got = append(got, claimUntilShard(t, url, "w1", "h").Shard)
	}
	if want := []string{"b", "c", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("claim order after resume = %v, want %v", got, want)
	}
}

// blockingSink gates CommitResult on a channel so a test can hold an
// upload mid-commit and probe what else the coordinator can do meanwhile.
type blockingSink struct {
	*memSink
	entered chan struct{} // closed when CommitResult is reached
	release chan struct{} // commit completes when this closes
}

func (s *blockingSink) CommitResult(name, title string, csv []byte, wallMS int64, worker string) error {
	close(s.entered)
	<-s.release
	return s.memSink.CommitResult(name, title, csv, wallMS, worker)
}

// TestCompleteCommitOutsideLock holds an upload inside Sink.CommitResult
// and requires a concurrent renewal to succeed while it is stuck: the
// multi-megabyte artifact fsync must not serialize the claim/renew path.
func TestCompleteCommitOutsideLock(t *testing.T) {
	sink := &blockingSink{
		memSink: newMemSink(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	_, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha", "beta"}, ConfigHash: "h", Sink: sink,
	})
	alpha := claimUntilShard(t, url, "w1", "h")
	beta := claimUntilShard(t, url, "w2", "h")

	completeDone := make(chan error, 1)
	go func() {
		var done CompleteResponse
		_, err := postJSON(t, url+PathComplete, CompleteRequest{
			Worker: "w1", Shard: alpha.Shard, Lease: alpha.Lease, ConfigHash: "h",
			Title: "t", CSV: []byte("k,v\n"),
		}, &done)
		completeDone <- err
	}()

	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("upload never reached CommitResult")
	}

	renewDone := make(chan RenewResponse, 1)
	go func() {
		var renew RenewResponse
		if _, err := postJSON(t, url+PathRenew, RenewRequest{Worker: "w2", Shard: beta.Shard, Lease: beta.Lease}, &renew); err != nil {
			t.Error(err)
		}
		renewDone <- renew
	}()
	select {
	case renew := <-renewDone:
		if !renew.OK {
			t.Errorf("renewal during in-flight commit rejected: %+v", renew)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("renewal blocked behind an in-flight CommitResult: the commit is running under a lock")
	}

	close(sink.release)
	if err := <-completeDone; err != nil {
		t.Fatalf("held upload failed after release: %v", err)
	}
}

// TestCloseJoinsServeGoroutine: Close must not return before the Serve
// goroutine has exited (the goroutine-join fix), and the port must really
// be closed afterwards.
func TestCloseJoinsServeGoroutine(t *testing.T) {
	c, err := New(Config{Shards: []string{"alpha"}, ConfigHash: "h", Sink: newMemSink(), OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	resp, err := http.Get(url + PathState)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	c.Close()
	select {
	case <-c.serveDone:
	default:
		t.Error("Close returned while the Serve goroutine was still running")
	}
	if _, err := http.Get(url + PathState); err == nil {
		t.Error("state endpoint still serving after Close")
	}
}

// orderSink logs the Sink calls in the order they land. hold, when set,
// runs after each call has landed and before it returns, so a test can
// park one there.
type orderSink struct {
	*memSink
	mu   sync.Mutex
	log  []string
	hold func(event string)
}

func (s *orderSink) note(event string) {
	s.mu.Lock()
	s.log = append(s.log, event)
	s.mu.Unlock()
	if s.hold != nil {
		s.hold(event)
	}
}

func (s *orderSink) events() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, " ")
}

func (s *orderSink) CommitResult(name, title string, csv []byte, wallMS int64, worker string) error {
	err := s.memSink.CommitResult(name, title, csv, wallMS, worker)
	s.note("result")
	return err
}

func (s *orderSink) CommitFailure(name string, wallMS int64, cause error, worker string) error {
	err := s.memSink.CommitFailure(name, wallMS, cause, worker)
	s.note("failure")
	return err
}

func (s *orderSink) CommitPoisoned(name string, attempts int, cause error) error {
	err := s.memSink.CommitPoisoned(name, attempts, cause)
	s.note("poisoned")
	return err
}

// holdFirst parks the first call logged as event: it closes reached, then
// waits for release.
func holdFirst(event string, reached, release chan struct{}) func(string) {
	var once sync.Once
	return func(got string) {
		if got == event {
			once.Do(func() {
				close(reached)
				<-release
			})
		}
	}
}

func awaitClosed(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

// upload posts alpha's result for claim and returns the reply.
func upload(t *testing.T, url string, claim ClaimResponse) chan CompleteResponse {
	out := make(chan CompleteResponse, 1)
	go func() {
		var done CompleteResponse
		if _, err := postJSON(t, url+PathComplete, CompleteRequest{
			Worker: "w1", Shard: claim.Shard, Lease: claim.Lease, ConfigHash: "h",
			Title: claim.Shard, CSV: []byte("k,v\n"),
		}, &done); err != nil {
			t.Error(err)
		}
		out <- done
	}()
	return out
}

// The sink must hear of a lapsed last attempt in the same step as the
// shard's transition. While the expiry is held inside CommitFailure, Wait
// must not return, since the report would then miss the poison record;
// and a late upload racing the expiry must end done and un-poisoned in
// the sink as well as in the coordinator.
func TestExpiryReachesSinkBeforeWaitOrLateUpload(t *testing.T) {
	reached, release := make(chan struct{}), make(chan struct{})
	sink := &orderSink{memSink: newMemSink()}
	sink.hold = holdFirst("failure", reached, release)
	c, url := newTestCoordinator(t, Config{Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink, MaxAttempts: 1})
	claim := claimUntilShard(t, url, "w1", "h")
	expireLeases(t, c)

	swept := make(chan struct{})
	go func() {
		defer close(swept)
		c.Snapshot() // expires the lease, then parks in CommitFailure
	}()
	awaitClosed(t, reached, "the expiry's CommitFailure")
	waited := make(chan error, 1)
	go func() {
		err := c.Wait(context.Background())
		sink.note("wait")
		waited <- err
	}()
	uploaded := upload(t, url, claim)
	select {
	case <-waited:
		t.Fatal("Wait returned while the expiry was still writing to the sink")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	awaitClosed(t, swept, "the expiry sweep")
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if done := <-uploaded; !done.OK || !done.Stale {
		t.Errorf("late upload = %+v, want accepted as stale", done)
	}
	log := sink.events()
	if p := strings.Index(log, "poisoned"); p < 0 || p > strings.Index(log, "wait") || p > strings.Index(log, "result") {
		t.Errorf("sink calls %q: the poison record must land before Wait returns and before the late result", log)
	}
	if _, poisoned := sink.poisonedAttempts("alpha"); poisoned {
		t.Error("the late upload won in the coordinator but the sink still has alpha poisoned")
	}
	if st := c.Snapshot().Shards[0].Status; st != StateDone {
		t.Errorf("alpha = %s, want done", st)
	}
}

// An upload whose result lands in the sink just before the shard's last
// lease lapses must still end done: the failure and poison records the
// expiry writes in between must not be the sink's last word.
func TestUploadRacingLastExpiryEndsDone(t *testing.T) {
	reached, release := make(chan struct{}), make(chan struct{})
	sink := &orderSink{memSink: newMemSink()}
	sink.hold = holdFirst("result", reached, release)
	c, url := newTestCoordinator(t, Config{Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink, MaxAttempts: 1})
	claim := claimUntilShard(t, url, "w1", "h")

	uploaded := upload(t, url, claim)
	awaitClosed(t, reached, "the upload's CommitResult")
	expireLeases(t, c)
	if st := c.Snapshot().Shards[0].Status; st != StatePoisoned {
		t.Fatalf("alpha = %s after its last lease lapsed, want poisoned", st)
	}
	close(release)
	if done := <-uploaded; !done.OK {
		t.Fatalf("upload = %+v, want accepted", done)
	}
	if got, want := sink.events(), "result failure poisoned result"; got != want {
		t.Errorf("sink calls %q, want %q", got, want)
	}
	if _, poisoned := sink.poisonedAttempts("alpha"); poisoned {
		t.Error("alpha is done in the coordinator but poisoned in the sink")
	}
	if st := c.Snapshot().Shards[0].Status; st != StateDone {
		t.Errorf("alpha = %s, want done", st)
	}
}
