package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphio/internal/faultinject"
)

// stubRun returns a RunFunc producing a deterministic table per shard
// after simulating delay of ctx-aware work.
func stubRun(delay time.Duration) RunFunc {
	return func(ctx context.Context, shard string) (string, []byte, error) {
		if err := sleepCtx(ctx, delay); err != nil {
			return "", nil, err
		}
		return "table " + shard, []byte("k,v\n1," + shard + "\n"), nil
	}
}

func TestWorkerRunsWholeSweep(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha", "beta", "gamma"}, ConfigHash: "h", Sink: sink,
	})
	err := RunWorker(context.Background(), WorkerConfig{
		ID: "w1", Coordinator: url, ConfigHash: "h", Run: stubRun(time.Millisecond),
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		r, ok := sink.result(name)
		if !ok || r.worker != "w1" || r.title != "table "+name {
			t.Fatalf("sink result for %s = %+v, ok=%v", name, r, ok)
		}
	}
	if !c.Snapshot().Done {
		t.Fatal("sweep not done after worker finished")
	}
}

func TestWorkerReportsFailuresUntilPoison(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"good", "bad"}, ConfigHash: "h", Sink: sink,
		MaxAttempts: 2, RetryDelay: time.Millisecond,
	})
	run := func(ctx context.Context, shard string) (string, []byte, error) {
		if shard == "bad" {
			return "", nil, errors.New("deterministic explosion")
		}
		return stubRun(0)(ctx, shard)
	}
	if err := RunWorker(context.Background(), WorkerConfig{
		ID: "w1", Coordinator: url, ConfigHash: "h", Run: run,
	}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if _, ok := sink.result("good"); !ok {
		t.Fatal("good shard missing from sink")
	}
	if n, ok := sink.poisonedAttempts("bad"); !ok || n != 2 {
		t.Fatalf("bad shard poisoned = (%d, %v), want (2, true)", n, ok)
	}
	if got := c.Poisoned(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("Poisoned() = %v", got)
	}
}

// A worker whose lease is yanked mid-run must abandon the shard silently —
// no failure report (the expiry already burned the attempt) — and then
// pick the shard back up on a fresh lease.
func TestWorkerAbandonsLostLeaseThenRetries(t *testing.T) {
	sink := newMemSink()
	c, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
		LeaseTTL: 150 * time.Millisecond, MaxAttempts: 3, RetryDelay: time.Millisecond,
	})
	var runs atomic.Int64
	started := make(chan struct{}, 1)
	run := func(ctx context.Context, shard string) (string, []byte, error) {
		if runs.Add(1) == 1 {
			started <- struct{}{}
			<-ctx.Done() // wedged until the lease-loss cancellation arrives
			return "", nil, ctx.Err()
		}
		return stubRun(0)(ctx, shard)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(context.Background(), WorkerConfig{
			ID: "w1", Coordinator: url, ConfigHash: "h", Run: run,
		})
	}()
	<-started
	expireLeases(t, c) // the next renewal discovers the loss
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunWorker: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker did not converge after lease loss")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs = %d, want 2 (abandon, then retry)", got)
	}
	if sink.commitCount("alpha") != 1 {
		t.Fatalf("commits = %d, want 1", sink.commitCount("alpha"))
	}
	// Exactly one failure record — the lease expiry. A worker-side fail
	// report would make it two (double-charging the attempt).
	if n := sink.failureCount("alpha"); n != 1 {
		t.Fatalf("failure records = %d, want 1 (expiry only, no worker report)", n)
	}
	snap := c.Snapshot()
	if snap.Shards[0].Attempts != 2 || snap.Shards[0].Status != StateDone {
		t.Fatalf("final shard state = %+v, want done on attempt 2", snap.Shards[0])
	}
}

// pathFault routes requests to one path through a faulting transport and
// everything else through the clean base — faults aimed at result uploads
// without disturbing the claim/renew chatter.
type pathFault struct {
	path  string
	inner http.RoundTripper
	base  http.RoundTripper
	hits  atomic.Int64
}

func (p *pathFault) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, p.path) {
		p.hits.Add(1)
		return p.inner.RoundTrip(r)
	}
	return p.base.RoundTrip(r)
}

// The half-open upload: the coordinator commits the result but the worker
// never sees the ACK. The retry double-submits; last-write-wins absorbs it.
func TestWorkerUploadSurvivesDroppedResponse(t *testing.T) {
	sink := newMemSink()
	_, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
	})
	ft := &faultinject.Transport{DropFrom: 1, Until: 1} // first upload's response is lost
	client := &http.Client{Transport: &pathFault{path: PathComplete, inner: ft, base: http.DefaultTransport}}
	if err := RunWorker(context.Background(), WorkerConfig{
		ID: "w1", Coordinator: url, ConfigHash: "h", Run: stubRun(0),
		Client: client, PollDelay: 5 * time.Millisecond,
	}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if got := ft.Faults(); got != 1 {
		t.Fatalf("injected faults = %d, want 1", got)
	}
	if got := sink.commitCount("alpha"); got != 2 {
		t.Fatalf("commits = %d, want 2 (the dropped ACK forced a double submit)", got)
	}
	if _, ok := sink.result("alpha"); !ok {
		t.Fatal("result missing after retried upload")
	}
}

// A truncated (torn mid-body) upload response is just another transient:
// the worker retries and the sweep converges.
func TestWorkerUploadSurvivesTruncatedResponse(t *testing.T) {
	sink := newMemSink()
	_, url := newTestCoordinator(t, Config{
		Shards: []string{"alpha"}, ConfigHash: "h", Sink: sink,
	})
	ft := &faultinject.Transport{TruncateFrom: 1, TruncateBytes: 3, Until: 1}
	client := &http.Client{Transport: &pathFault{path: PathComplete, inner: ft, base: http.DefaultTransport}}
	if err := RunWorker(context.Background(), WorkerConfig{
		ID: "w1", Coordinator: url, ConfigHash: "h", Run: stubRun(0),
		Client: client, PollDelay: 5 * time.Millisecond,
	}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if _, ok := sink.result("alpha"); !ok {
		t.Fatal("result missing after truncated-response retry")
	}
}

func TestWorkerConfigHashMismatchIsFatal(t *testing.T) {
	_, url := newTestCoordinator(t, Config{Shards: []string{"alpha"}, ConfigHash: "right"})
	err := RunWorker(context.Background(), WorkerConfig{
		ID: "w1", Coordinator: url, ConfigHash: "wrong", Run: stubRun(0),
	})
	if err == nil || !strings.Contains(err.Error(), "config hash mismatch") {
		t.Fatalf("RunWorker with wrong hash = %v, want fatal mismatch error", err)
	}
}

func TestWorkerGivesUpOnUnreachableCoordinator(t *testing.T) {
	err := RunWorker(context.Background(), WorkerConfig{
		ID: "w1", Coordinator: "http://127.0.0.1:1", ConfigHash: "h", Run: stubRun(0),
		PollDelay: time.Millisecond, MaxIdle: 50 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("RunWorker against dead coordinator = %v, want unreachable error", err)
	}
}

// Two workers racing one coordinator must partition the shards between
// them without double-running anything on the happy path.
func TestWorkersPartitionShards(t *testing.T) {
	sink := newMemSink()
	shards := make([]string, 8)
	for i := range shards {
		shards[i] = fmt.Sprintf("s%02d", i)
	}
	c, url := newTestCoordinator(t, Config{Shards: shards, ConfigHash: "h", Sink: sink})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(context.Background(), WorkerConfig{
				ID: fmt.Sprintf("w%d", i), Coordinator: url, ConfigHash: "h",
				Run: stubRun(2 * time.Millisecond), PollDelay: 2 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	workers := map[string]bool{}
	for _, name := range shards {
		r, ok := sink.result(name)
		if !ok {
			t.Fatalf("shard %s missing", name)
		}
		if sink.commitCount(name) != 1 {
			t.Fatalf("shard %s committed %d times, want 1", name, sink.commitCount(name))
		}
		workers[r.worker] = true
	}
	if !c.Snapshot().Done {
		t.Fatal("sweep not done")
	}
	_ = workers // either worker may win every race; partitioning is not asserted
}
