package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"graphio/internal/obs"
)

// RunFunc executes one shard and returns its table title and CSV bytes.
// The cmd wiring routes this through experiments.RunAll with a single
// experiment name; tests substitute stubs. The ctx carries the worker's
// telemetry scope and is cancelled when the shard's lease is lost or its
// deadline passes — a RunFunc that honours ctx (everything built on the
// solvers does) therefore stops wasting cycles on work nobody will accept.
type RunFunc func(ctx context.Context, shard string) (title string, csv []byte, err error)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// ID names this worker in leases, manifest records and telemetry.
	ID string
	// Coordinator is the base URL to dial, e.g. "http://127.0.0.1:9120".
	Coordinator string
	// ConfigHash must match the coordinator's sweep; a mismatch is fatal.
	ConfigHash string
	// AuthToken rides every request as "Authorization: Bearer <token>"
	// when non-empty; must match the coordinator's Config.AuthToken.
	AuthToken string
	// Run executes one claimed shard.
	Run RunFunc
	// Client issues the HTTP requests (nil = a dedicated default client).
	// Tests inject faultinject.Transport here to simulate a flaky network.
	Client *http.Client
	// ShardTimeout deadlines each shard run (0 = none).
	ShardTimeout time.Duration
	// PollDelay is the base backoff between failed or empty claims.
	// Default 200ms.
	PollDelay time.Duration
	// MaxIdle bounds how long the worker keeps retrying an unreachable
	// coordinator before giving up. Default 2m. A coordinator restart
	// shorter than this is ridden out transparently.
	MaxIdle time.Duration
	// StallAfterClaim is a chaos mode: claim one shard, then stall without
	// renewing (holding the lease hostage past its TTL) until ctx ends.
	// Exercises the lease-expiry path end to end.
	StallAfterClaim bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// errLeaseLost cancels a shard run whose lease the coordinator no longer
// honours; the worker abandons the run silently (the coordinator has
// already burned the attempt and re-queued the shard).
var errLeaseLost = errors.New("dist: lease lost")

// errFatal wraps protocol errors that retrying cannot fix (409 config
// mismatch, malformed requests): the worker exits instead of hammering.
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// RunWorker claims shards from the coordinator until the sweep is done,
// ctx is cancelled, or the coordinator stays unreachable past MaxIdle.
// Returns nil on a completed sweep (including one with poisoned shards —
// the coordinator owns that verdict).
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Run == nil && !cfg.StallAfterClaim {
		return errors.New("dist: WorkerConfig.Run is required")
	}
	if cfg.PollDelay <= 0 {
		cfg.PollDelay = 200 * time.Millisecond
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = 2 * time.Minute
	}
	w := &worker{cfg: cfg, client: cfg.Client}
	if w.client == nil {
		w.client = &http.Client{}
	}
	// The worker's root scope: shard runs derive their ctx from it, so the
	// sweep scope RunAll opens nests under it and /tasks shows
	// worker-<id>/sweep/<experiment> attribution per shard.
	w.scope = obs.NewScope("worker-" + cfg.ID)
	defer w.scope.Close()
	return w.run(obs.WithScope(ctx, w.scope))
}

type worker struct {
	cfg    WorkerConfig
	client *http.Client
	scope  *obs.Scope
}

func (w *worker) run(ctx context.Context) error {
	claimBackoff := newBackoff(w.cfg.ID, w.cfg.PollDelay, 5*time.Second)
	var unreachableSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp ClaimResponse
		err := w.post(ctx, PathClaim, ClaimRequest{Worker: w.cfg.ID, ConfigHash: w.cfg.ConfigHash}, &resp)
		if err != nil {
			var fatal errFatal
			if errors.As(err, &fatal) {
				return fmt.Errorf("dist: worker %s: %w", w.cfg.ID, err)
			}
			// Transport trouble: the coordinator may be restarting. Back off
			// and retry until MaxIdle says it is gone for good.
			if unreachableSince.IsZero() {
				unreachableSince = obs.Now()
			} else if obs.Since(unreachableSince) > w.cfg.MaxIdle {
				return fmt.Errorf("dist: worker %s: coordinator unreachable for %v: %w", w.cfg.ID, w.cfg.MaxIdle, err)
			}
			w.scope.Inc("dist.worker.claim_errors")
			w.logf("dist: worker %s: claim failed (%v), retrying", w.cfg.ID, err)
			if serr := sleepCtx(ctx, claimBackoff.delay()); serr != nil {
				return serr
			}
			continue
		}
		unreachableSince = time.Time{}
		claimBackoff.reset()
		switch resp.Status {
		case ClaimDone:
			w.logf("dist: worker %s: sweep complete, exiting", w.cfg.ID)
			return nil
		case ClaimWait:
			delay := time.Duration(resp.RetryMS) * time.Millisecond
			if delay <= 0 {
				delay = w.cfg.PollDelay
			}
			if err := sleepCtx(ctx, delay); err != nil {
				return err
			}
		case ClaimShard:
			if w.cfg.StallAfterClaim {
				// Chaos: hold the lease without renewing until ctx ends. The
				// coordinator must expire it and hand the shard elsewhere.
				w.logf("dist: worker %s: stalling on %s (lease %s, chaos mode)", w.cfg.ID, resp.Shard, resp.Lease)
				<-ctx.Done()
				return ctx.Err()
			}
			if err := w.runShard(ctx, resp); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: worker %s: unknown claim status %q", w.cfg.ID, resp.Status)
		}
	}
}

// runShard executes one granted shard under a lease-renewal goroutine and
// reports the outcome. Errors returned here end the worker; shard-level
// failures are reported to the coordinator and return nil.
func (w *worker) runShard(ctx context.Context, grant ClaimResponse) error {
	shard, lease := grant.Shard, grant.Lease
	ttl := time.Duration(grant.LeaseTTLMS) * time.Millisecond
	w.logf("dist: worker %s: running %s (lease %s, attempt %d)", w.cfg.ID, shard, lease, grant.Attempt)

	runCtx, cancel := context.WithCancelCause(ctx)
	if w.cfg.ShardTimeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(runCtx, w.cfg.ShardTimeout)
		defer tcancel()
	}
	renewDone := make(chan struct{})
	go w.renewLoop(runCtx, shard, lease, ttl, cancel, renewDone)

	start := obs.Now()
	title, csv, runErr := w.cfg.Run(runCtx, shard)
	wallMS := obs.Since(start).Milliseconds()
	cancel(nil) // stop the renewal loop
	<-renewDone

	leaseLost := errors.Is(context.Cause(runCtx), errLeaseLost)
	if runErr != nil {
		if leaseLost {
			// The coordinator already expired the lease and re-queued the
			// shard; reporting a failure now would double-charge the attempt
			// (it would be ignored anyway — the lease is stale). Abandon.
			w.scope.Inc("dist.worker.abandoned")
			w.logf("dist: worker %s: abandoning %s (lease lost mid-run)", w.cfg.ID, shard)
			return nil
		}
		if err := ctx.Err(); err != nil {
			// The worker itself is shutting down; the lease will expire.
			return err
		}
		w.scope.Inc("dist.worker.shard_failures")
		w.logf("dist: worker %s: %s failed after %dms: %v", w.cfg.ID, shard, wallMS, runErr)
		var resp FailResponse
		if err := w.postRetry(ctx, PathFail, FailRequest{
			Worker: w.cfg.ID, Shard: shard, Lease: lease, Error: runErr.Error(), WallMS: wallMS,
		}, &resp); err != nil {
			// Could not deliver the report: the lease expires and the
			// coordinator charges the attempt anyway. Not fatal.
			w.logf("dist: worker %s: failure report for %s lost (%v); lease expiry will cover it", w.cfg.ID, shard, err)
		}
		return nil
	}

	// Upload even if the lease was lost while finishing: the result is
	// still valid for the config hash, and the coordinator merges it
	// last-write-wins — better a redundant result than a wasted run.
	var resp CompleteResponse
	if err := w.postRetry(ctx, PathComplete, CompleteRequest{
		Worker: w.cfg.ID, Shard: shard, Lease: lease, ConfigHash: w.cfg.ConfigHash,
		Title: title, CSV: csv, WallMS: wallMS,
	}, &resp); err != nil {
		var fatal errFatal
		if errors.As(err, &fatal) {
			return fmt.Errorf("dist: worker %s: uploading %s: %w", w.cfg.ID, shard, err)
		}
		w.logf("dist: worker %s: upload of %s lost (%v); shard will be re-run", w.cfg.ID, shard, err)
		return nil
	}
	w.scope.Inc("dist.worker.completed")
	if resp.Stale {
		w.logf("dist: worker %s: %s uploaded on a lost lease (merged anyway)", w.cfg.ID, shard)
	} else {
		w.logf("dist: worker %s: %s done in %dms", w.cfg.ID, shard, wallMS)
	}
	return nil
}

// renewLoop keeps the shard's lease alive with renewals every TTL/3. When
// the coordinator rejects a renewal, or renewals keep failing past a full
// TTL (the lease must be gone by then), the shard run is cancelled with
// errLeaseLost.
func (w *worker) renewLoop(ctx context.Context, shard, lease string, ttl time.Duration, cancel context.CancelCauseFunc, done chan<- struct{}) {
	defer close(done)
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	lastOK := obs.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var resp RenewResponse
		err := w.post(ctx, PathRenew, RenewRequest{Worker: w.cfg.ID, Shard: shard, Lease: lease}, &resp)
		switch {
		case err == nil && resp.OK:
			lastOK = obs.Now()
			w.scope.Inc("dist.worker.renewals")
		case err == nil: // definitive: the coordinator disowned the lease
			w.logf("dist: worker %s: lease %s on %s rejected: %s", w.cfg.ID, lease, shard, resp.Reason)
			cancel(errLeaseLost)
			return
		default: // transport trouble: tolerate until the lease must be dead
			if obs.Since(lastOK) > ttl {
				w.logf("dist: worker %s: no successful renewal of %s for %v; assuming lease lost", w.cfg.ID, shard, ttl)
				cancel(errLeaseLost)
				return
			}
		}
	}
}

// post issues one JSON POST. Non-2xx statuses become errors; 409 (config
// mismatch) and 400 (malformed request) are wrapped errFatal because
// retrying cannot fix them.
func (w *worker) post(ctx context.Context, path string, body, into any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return errFatal{err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(w.cfg.Coordinator, "/")+path, bytes.NewReader(raw))
	if err != nil {
		return errFatal{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.AuthToken)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
		// 409 (config mismatch), 400 (malformed), and 401 (bad or missing
		// token) cannot be fixed by retrying.
		if resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusUnauthorized {
			return errFatal{err}
		}
		return err
	}
	return json.Unmarshal(data, into)
}

// postRetry is post with capped retries for transient failures — the
// upload path, where a lost response must not lose the result.
func (w *worker) postRetry(ctx context.Context, path string, body, into any) error {
	b := newBackoff(w.cfg.ID+path, w.cfg.PollDelay, 2*time.Second)
	const attempts = 5
	var last error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.post(ctx, path, body, into)
		if err == nil {
			return nil
		}
		var fatal errFatal
		if errors.As(err, &fatal) {
			return err
		}
		last = err
		w.scope.Inc("dist.worker.upload_retries")
		if serr := sleepCtx(ctx, b.delay()); serr != nil {
			return serr
		}
	}
	return fmt.Errorf("giving up after %d attempts: %w", attempts, last)
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		fmt.Fprintf(w.cfg.Log, format+"\n", args...)
	}
}
