package graphiod

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphio/internal/faultinject"
	"graphio/internal/gen"
	"graphio/internal/linalg"
	"graphio/internal/persist"
)

// newTestServer builds a daemon on a temp data dir and an httptest front
// end for it. Returned cleanup order matters: the HTTP server dies first,
// then Close hard-stops the workers.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 15 * time.Second
	}
	cfg.Log = t.Logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(hs.Close)
	return srv, hs.URL
}

// stallWrap wraps every iterative solve of every job in a per-call stall so
// jobs stay in flight long enough for admission and shutdown assertions.
func stallWrap(d time.Duration) func(string, linalg.Operator) linalg.Operator {
	return func(_ string, op linalg.Operator) linalg.Operator {
		return &faultinject.Op{A: op, StallFrom: 1, Stall: d}
	}
}

// submitRaw posts a request body and returns the status plus decoded body.
func submitRaw(t *testing.T, url, token string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fields map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, fields
}

// submit posts a JobRequest and decodes the SubmitResponse, failing the
// test on any status other than want.
func submit(t *testing.T, url string, req JobRequest, want int) SubmitResponse {
	t.Helper()
	status, fields := submitRaw(t, url, "", req)
	if status != want {
		t.Fatalf("submit %+v: status %d, want %d (body %v)", req, status, want, fields)
	}
	raw, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var resp SubmitResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// compactJSON canonicalizes whitespace so artifacts decoded out of indented
// response envelopes compare against the stored bytes.
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %q: %v", raw, err)
	}
	return buf.String()
}

// faultOf decodes the error envelope of a non-2xx response.
func faultOf(t *testing.T, fields map[string]json.RawMessage) Fault {
	t.Helper()
	var f Fault
	if err := json.Unmarshal(fields["error"], &f); err != nil {
		t.Fatalf("no structured error in %v: %v", fields, err)
	}
	return f
}

// waitState polls a job until it reaches one of the wanted states.
func waitState(t *testing.T, srv *Server, id string, states ...string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := srv.store.get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		for _, s := range states {
			if info.Status == s {
				return info
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	info, _ := srv.store.get(id)
	t.Fatalf("job %s stuck in %q, want one of %v", id, info.Status, states)
	return JobInfo{}
}

func TestParseSpecCanonicalizes(t *testing.T) {
	cases := []struct {
		in, want, wantErr string
		maxV              int
	}{
		{"fft:10", "fft:10", "", 1 << 20},
		{" FFT:10 ", "fft:10", "", 1 << 20},
		{"butterfly:10", "fft:10", "", 1 << 20},
		{"hypercube:12", "bhk:12", "", 1 << 20},
		{"grid:64", "grid:64", "", 1 << 20},
		{"fft", "", "want name:size", 1 << 20},
		{"warp:9", "", "unknown generator", 1 << 20},
		{"fft:x", "", "not an integer", 1 << 20},
		{"fft:0", "", "must be ≥ 1", 1 << 20},
		{"fft:99", "", "exceeds the fft cap", 1 << 20},
		{"chain:5000", "", "over the daemon's", 4096},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in, c.maxV)
		if c.wantErr == "" {
			if err != nil || got != c.want {
				t.Errorf("ParseSpec(%q) = %q, %v; want %q", c.in, got, err, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", c.in, err, c.wantErr)
		}
	}
}

// Cache keys must depend on exactly the result-affecting fields: aliases of
// one generator share a key, operational knobs never enter it (they are not
// jobSpec fields at all), and every semantic field separates keys.
func TestJobKeyStability(t *testing.T) {
	base := jobSpec{V: 1, Spec: "fft:10", M: 64, MaxK: 8, Solver: "auto"}
	if base.Key() != (jobSpec{V: 1, Spec: "fft:10", M: 64, MaxK: 8, Solver: "auto"}).Key() {
		t.Fatal("identical specs produced different keys")
	}
	variants := []jobSpec{
		{V: 2, Spec: "fft:10", M: 64, MaxK: 8, Solver: "auto"},
		{V: 1, Spec: "fft:11", M: 64, MaxK: 8, Solver: "auto"},
		{V: 1, Spec: "fft:10", M: 65, MaxK: 8, Solver: "auto"},
		{V: 1, Spec: "fft:10", M: 64, MaxK: 9, Solver: "auto"},
		{V: 1, Spec: "fft:10", M: 64, MaxK: 8, Solver: "dense"},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Fatalf("spec %+v collides with an earlier key", v)
		}
		seen[v.Key()] = true
	}
}

// The basic service loop: submit, poll to done, fetch the artifact, and a
// resubmission of the same work is served from the cache byte-identically.
func TestSubmitCompleteAndCacheHit(t *testing.T) {
	srv, url := newTestServer(t, Config{Workers: 2})
	// §5.1 of the paper: the hypercube (BHK) bound is positive from l=6 at
	// M=1, so this job must certify a nontrivial bound via theorem5.
	req := JobRequest{Spec: "bhk:6", M: 1, MaxK: 8, Solver: "dense"}
	first := submit(t, url, req, http.StatusAccepted)
	if first.Status != StateQueued || first.Cached {
		t.Fatalf("first submit = %+v, want fresh queued job", first.JobInfo)
	}
	done := waitState(t, srv, first.ID, StateDone, StateFailed)
	if done.Status != StateDone {
		t.Fatalf("job finished as %+v, want done", done)
	}
	art, err := srv.store.readArtifact(done.Key)
	if err != nil {
		t.Fatalf("artifact missing after done: %v", err)
	}
	var parsed Artifact
	if err := json.Unmarshal(art, &parsed); err != nil {
		t.Fatalf("artifact is not JSON: %v", err)
	}
	if parsed.Best.Bound <= 0 || parsed.N != 1<<6 || len(parsed.Methods) != 2 {
		t.Fatalf("artifact = %+v, want a positive bound with both methods attempted on bhk:6", parsed)
	}

	second := submit(t, url, req, http.StatusOK)
	if !second.Cached || second.Status != StateDone {
		t.Fatalf("resubmit = %+v, want an immediate cache hit", second.JobInfo)
	}
	if second.ArtifactSHA != done.ArtifactSHA {
		t.Fatalf("cache hit sha %s != original %s", second.ArtifactSHA, done.ArtifactSHA)
	}
	// The envelope encoder re-indents the embedded raw artifact, so compare
	// the JSON values, not the whitespace; ArtifactSHA above already pinned
	// exact byte identity of the stored artifact.
	if compactJSON(t, second.Result) != compactJSON(t, art) {
		t.Fatal("cache hit served a different artifact than the stored one")
	}
}

// Submissions racing running workers: the submit handler must answer from
// a snapshot taken under the store lock, not by reading a job a worker may
// already be moving to running. Run under -race, the old handler reported
// a data race between the response's job.info() and store.next.
func TestConcurrentSubmitsWhileWorkersRun(t *testing.T) {
	srv, url := newTestServer(t, Config{Workers: 2, ClientInFlight: 64})
	const perClient = 40
	ids := make([][]string, 2)
	var wg sync.WaitGroup
	for c := range ids {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := JobRequest{Spec: fmt.Sprintf("chain:%d", 4+i%5), M: 1 + c*perClient + i,
					MaxK: 4, Solver: "dense", Client: fmt.Sprintf("client-%d", c)}
				raw, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				var sr SubmitResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted || sr.ID == "" {
					t.Errorf("client %d submit %d: status %d, id %q, err %v", c, i, resp.StatusCode, sr.ID, err)
					return
				}
				ids[c] = append(ids[c], sr.ID)
			}
		}(c)
	}
	wg.Wait()
	for _, list := range ids {
		for _, id := range list {
			if info := waitState(t, srv, id, StateDone, StateFailed); info.Status != StateDone {
				t.Errorf("job %s finished as %+v, want done", id, info)
			}
		}
	}
}

// Semantically identical uploads (differing only in JSON whitespace) must
// canonicalize to the same content address and thus the same cache key.
func TestUploadCanonicalization(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	var buf bytes.Buffer
	if err := gen.Chain(8).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	compact := buf.Bytes()
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "    "); err != nil {
		t.Fatal(err)
	}
	a := submit(t, url, JobRequest{Graph: compact, M: 4, MaxK: 2, Solver: "dense"}, http.StatusAccepted)
	b := submitRawStatusAny(t, url, JobRequest{Graph: indented.Bytes(), M: 4, MaxK: 2, Solver: "dense"})
	if a.Key != b.Key || a.GraphSHA != b.GraphSHA {
		t.Fatalf("reformatted upload got key %s / sha %s, want %s / %s", b.Key, b.GraphSHA, a.Key, a.GraphSHA)
	}
}

// submitRawStatusAny submits and decodes without pinning the status: the
// second canonicalization submit may race the first to done (cache hit 200)
// or still find it queued (202).
func submitRawStatusAny(t *testing.T, url string, req JobRequest) SubmitResponse {
	t.Helper()
	status, fields := submitRaw(t, url, "", req)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit: status %d (body %v)", status, fields)
	}
	raw, _ := json.Marshal(fields)
	var resp SubmitResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// A SIGKILL-shaped stop (Close without Drain) mid-job must leave the WAL
// replayable: the running job and the queued one behind it both restart and
// complete on the next daemon, and the artifact a crash interrupted is
// recomputed to the same bytes.
func TestHardStopReplaysUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	srv1, url := newTestServer(t, Config{
		DataDir: dir, Workers: 1,
		WrapOperator: stallWrap(30 * time.Millisecond),
	})
	running := submit(t, url, JobRequest{Spec: "chain:48", M: 8, MaxK: 4, Solver: "lanczos"}, http.StatusAccepted)
	queued := submit(t, url, JobRequest{Spec: "chain:24", M: 8, MaxK: 4, Solver: "dense"}, http.StatusAccepted)
	waitState(t, srv1, running.ID, StateRunning)
	srv1.Close() // hard stop: the running job must NOT reach a terminal WAL state

	srv2, err := New(Config{DataDir: dir, DefaultTimeout: 15 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatalf("reopen after hard stop: %v", err)
	}
	defer srv2.Close()
	if srv2.store.replayed != 2 {
		t.Fatalf("replayed %d jobs, want 2 (one interrupted, one queued)", srv2.store.replayed)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if info := waitState(t, srv2, id, StateDone, StateFailed); info.Status != StateDone {
			t.Fatalf("replayed job %s ended %+v, want done", id, info)
		}
	}
}

// A completed job whose artifact file is lost must be re-queued on replay
// (the done record no longer verifies) and recomputed byte-identically —
// the determinism the content-addressed cache rests on.
func TestReplayRecomputesLostArtifactIdentically(t *testing.T) {
	dir := t.TempDir()
	srv1, url := newTestServer(t, Config{DataDir: dir, Workers: 1})
	job := submit(t, url, JobRequest{Spec: "chain:32", M: 8, MaxK: 4, Solver: "dense"}, http.StatusAccepted)
	done := waitState(t, srv1, job.ID, StateDone, StateFailed)
	if done.Status != StateDone {
		t.Fatalf("job ended %+v, want done", done)
	}
	srv1.Close()
	if err := os.Remove(artifactPath(dir, done.Key)); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{DataDir: dir, DefaultTimeout: 15 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	redone := waitState(t, srv2, job.ID, StateDone, StateFailed)
	if redone.Status != StateDone {
		t.Fatalf("recomputed job ended %+v, want done", redone)
	}
	if redone.ArtifactSHA != done.ArtifactSHA {
		t.Fatalf("recomputed artifact sha %s != original %s; artifacts are not deterministic", redone.ArtifactSHA, done.ArtifactSHA)
	}
}

// A torn final WAL record — the crash-during-append case — must be dropped
// silently, keeping every durably appended record (including the result
// cache) intact.
func TestTornWALTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	srv1, url := newTestServer(t, Config{DataDir: dir, Workers: 1})
	job := submit(t, url, JobRequest{Spec: "chain:16", M: 4, MaxK: 2, Solver: "dense"}, http.StatusAccepted)
	waitState(t, srv1, job.ID, StateDone)
	srv1.Close()

	//lint:ignore persist-writes simulating a torn WAL tail requires a raw append
	f, err := os.OpenFile(walPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":"00000000","rec":{"kind":"acc`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, url2 := newTestServer(t, Config{DataDir: dir, Workers: 1})
	_ = srv2
	hit := submit(t, url2, JobRequest{Spec: "chain:16", M: 4, MaxK: 2, Solver: "dense"}, http.StatusOK)
	if !hit.Cached {
		t.Fatalf("resubmit after torn tail = %+v, want cache hit", hit.JobInfo)
	}
}

// A CRC-valid record that is not a job-table record means a writer bug,
// not a torn tail; the daemon must refuse to open rather than guess at
// queue state.
func TestCorruptWALRecordRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := newTestServer(t, Config{DataDir: dir, Workers: 1})
	srv1.Close()

	frame, err := persist.FrameRecord([]byte(`[1,2]`))
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore persist-writes simulating WAL corruption requires a raw append
	f, err := os.OpenFile(walPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(Config{DataDir: dir}); err == nil || !strings.Contains(err.Error(), "corrupt WAL record") {
		t.Fatalf("New on corrupt WAL = %v, want corrupt-record refusal", err)
	}
}

// A stalled eigensolve must hit its per-job deadline as a typed failure
// while an unaffected sibling job completes: one bad job cannot take the
// daemon down with it.
func TestStalledSolverHitsDeadlineSiblingCompletes(t *testing.T) {
	srv, url := newTestServer(t, Config{
		Workers: 2,
		WrapOperator: func(jobID string, op linalg.Operator) linalg.Operator {
			if jobID == "j000000" {
				return &faultinject.Op{A: op, StallFrom: 1, Stall: 30 * time.Millisecond}
			}
			return op
		},
	})
	stalled := submit(t, url, JobRequest{Spec: "chain:48", M: 8, MaxK: 4, Solver: "lanczos", TimeoutMS: 250}, http.StatusAccepted)
	healthy := submit(t, url, JobRequest{Spec: "chain:24", M: 8, MaxK: 4, Solver: "dense"}, http.StatusAccepted)

	if info := waitState(t, srv, healthy.ID, StateDone, StateFailed); info.Status != StateDone {
		t.Fatalf("healthy sibling ended %+v, want done", info)
	}
	info := waitState(t, srv, stalled.ID, StateDone, StateFailed)
	if info.Status != StateFailed || info.Error == nil || info.Error.Kind != KindDeadline {
		t.Fatalf("stalled job ended %+v, want typed %q failure", info, KindDeadline)
	}
}

// Admission control: the per-client cap fires before the global queue cap,
// and both come back as structured 429s with Retry-After.
func TestAdmissionControl(t *testing.T) {
	srv, url := newTestServer(t, Config{
		Workers: 1, QueueCap: 1, ClientInFlight: 1,
		WrapOperator: stallWrap(30 * time.Millisecond),
	})
	running := submit(t, url, JobRequest{Spec: "chain:48", M: 8, MaxK: 4, Solver: "lanczos", Client: "alice"}, http.StatusAccepted)
	waitState(t, srv, running.ID, StateRunning) // queue empty again

	submit(t, url, JobRequest{Spec: "chain:40", M: 8, MaxK: 4, Solver: "lanczos", Client: "bob"}, http.StatusAccepted)

	status, fields := submitRaw(t, url, "", JobRequest{Spec: "chain:36", M: 8, MaxK: 4, Client: "alice"})
	if f := faultOf(t, fields); status != http.StatusTooManyRequests || f.Kind != "client_limit" {
		t.Fatalf("over-cap client submit = %d %+v, want 429 client_limit", status, f)
	}

	status, fields = submitRaw(t, url, "", JobRequest{Spec: "chain:44", M: 8, MaxK: 4, Client: "carol"})
	if f := faultOf(t, fields); status != http.StatusTooManyRequests || f.Kind != "queue_full" {
		t.Fatalf("full-queue submit = %d %+v, want 429 queue_full", status, f)
	}
}

// Under memory pressure the daemon sheds exactly the lowest-priority queued
// job, journaled and typed so the client learns to resubmit.
func TestMemoryPressureShedsLowestPriority(t *testing.T) {
	var highChecks atomic.Int64
	srv, url := newTestServer(t, Config{
		Workers: 1, MemSoftLimit: 50,
		MemUsage: func() int64 {
			if highChecks.Add(-1) >= 0 {
				return 100
			}
			return 0
		},
		WrapOperator: stallWrap(30 * time.Millisecond),
	})
	running := submit(t, url, JobRequest{Spec: "chain:48", M: 8, MaxK: 4, Solver: "lanczos", Priority: 9}, http.StatusAccepted)
	waitState(t, srv, running.ID, StateRunning)
	mid := submit(t, url, JobRequest{Spec: "chain:40", M: 8, MaxK: 4, Solver: "lanczos", Priority: 5}, http.StatusAccepted)
	low := submit(t, url, JobRequest{Spec: "chain:36", M: 8, MaxK: 4, Solver: "lanczos", Priority: 1}, http.StatusAccepted)

	highChecks.Store(1) // exactly one over-limit reading: shed exactly one job
	trigger := submit(t, url, JobRequest{Spec: "chain:44", M: 8, MaxK: 4, Solver: "lanczos", Priority: 7}, http.StatusAccepted)

	if info, _ := srv.store.get(low.ID); info.Status != StateShed || info.Error == nil || info.Error.Kind != "shed" {
		t.Fatalf("lowest-priority job = %+v, want typed shed", info)
	}
	for _, id := range []string{mid.ID, trigger.ID} {
		if info, _ := srv.store.get(id); info.Status == StateShed {
			t.Fatalf("job %s shed, want only the lowest-priority one dropped", id)
		}
	}
}

// Bearer auth guards every API endpoint but leaves the health probes open
// for load balancers.
func TestAuthToken(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1, AuthToken: "sekrit"})

	get := func(path, token string) int {
		req, err := http.NewRequest(http.MethodGet, url+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/v1/jobs", ""); got != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", got)
	}
	if got := get("/v1/jobs", "wrong"); got != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", got)
	}
	if got := get("/v1/jobs", "sekrit"); got != http.StatusOK {
		t.Fatalf("right token: %d, want 200", got)
	}
	if got := get("/healthz", ""); got != http.StatusOK {
		t.Fatalf("unauthenticated /healthz: %d, want 200 (probe exemption)", got)
	}

	status, fields := submitRaw(t, url, "", JobRequest{Spec: "chain:16", M: 4})
	if f := faultOf(t, fields); status != http.StatusUnauthorized || f.Kind != "auth" {
		t.Fatalf("unauthenticated submit = %d %+v, want typed 401", status, f)
	}
	if status, _ := submitRaw(t, url, "sekrit", JobRequest{Spec: "chain:16", M: 4, Solver: "dense"}); status != http.StatusAccepted {
		t.Fatalf("authenticated submit = %d, want 202", status)
	}
}

// An oversized graph upload must come back as a structured 413 naming the
// configured byte cap, not a connection reset or generic 400.
func TestOversizedUploadIs413(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1, MaxGraphBytes: 512})
	big := "[" + strings.Repeat("0,", 600) + "0]"
	status, fields := submitRaw(t, url, "", JobRequest{Graph: json.RawMessage(big), M: 4})
	f := faultOf(t, fields)
	if status != http.StatusRequestEntityTooLarge || f.Kind != "size" || f.Limit != 512 {
		t.Fatalf("oversized upload = %d %+v, want 413 size fault with limit 512", status, f)
	}
}

// Input validation rejections are typed 400s.
func TestSubmitValidation(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		req  JobRequest
		want string
	}{
		{JobRequest{M: 4}, "exactly one of spec or graph"},
		{JobRequest{Spec: "chain:16"}, "must be ≥ 1"},
		{JobRequest{Spec: "chain:16", M: 4, MaxK: 1 << 20}, "max_k must be in"},
		{JobRequest{Spec: "chain:16", M: 4, Solver: "quantum"}, "unknown solver"},
		{JobRequest{Spec: "chain:16", M: 4, Solver: "power"}, "unknown solver"},
		{JobRequest{Spec: "warp:4", M: 4}, "unknown generator"},
	}
	for _, c := range cases {
		status, fields := submitRaw(t, url, "", c.req)
		f := faultOf(t, fields)
		if status != http.StatusBadRequest || f.Kind != "input" || !strings.Contains(f.Message, c.want) {
			t.Errorf("submit %+v = %d %+v, want 400 input fault containing %q", c.req, status, f, c.want)
		}
	}
}

// Drain flips readiness and refuses new work with a typed 503 while letting
// the in-flight job finish; queued jobs stay journaled for the next start.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, url := newTestServer(t, Config{
		Workers: 1, WrapOperator: stallWrap(20 * time.Millisecond),
	})
	running := submit(t, url, JobRequest{Spec: "chain:48", M: 8, MaxK: 4, Solver: "lanczos"}, http.StatusAccepted)
	waitState(t, srv, running.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, fields := submitRaw(t, url, "", JobRequest{Spec: "chain:16", M: 4})
	if f := faultOf(t, fields); status != http.StatusServiceUnavailable || f.Kind != "draining" {
		t.Fatalf("submit during drain = %d %+v, want typed 503", status, f)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if info, _ := srv.store.get(running.ID); info.Status != StateDone {
		t.Fatalf("in-flight job after drain = %+v, want done (drain waits for it)", info)
	}
}

// fetchJob exercises the GET endpoints end to end.
func TestJobAndResultEndpoints(t *testing.T) {
	srv, url := newTestServer(t, Config{Workers: 1})
	job := submit(t, url, JobRequest{Spec: "chain:16", M: 4, MaxK: 2, Solver: "dense"}, http.StatusAccepted)
	done := waitState(t, srv, job.ID, StateDone)

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", url, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Status != StateDone || len(got.Result) == 0 {
		t.Fatalf("GET job = %+v, want done with inline result", got.JobInfo)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/results/%s", url, done.Key))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || compactJSON(t, body.Bytes()) != compactJSON(t, got.Result) {
		t.Fatalf("GET result: status %d, artifact mismatch with the inline job result", resp.StatusCode)
	}

	if resp, err := http.Get(url + "/v1/jobs/j999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET missing job = %d, want 404", resp.StatusCode)
		}
	}
}

// A result key is a URL path segment the client controls; anything that is
// not a SHA-256 hex digest — in particular "../" traversals aimed at JSON
// files outside the results dir — must 404 without touching the filesystem.
func TestResultKeyTraversalRejected(t *testing.T) {
	dir := t.TempDir()
	srv, url := newTestServer(t, Config{DataDir: dir, Workers: 1})
	// A decoy the traversal would reach if the key went straight into
	// filepath.Join: data dir root, one level above results/.
	//lint:ignore persist-writes planting a traversal decoy, not a durable artifact
	if err := os.WriteFile(dir+"/secret.json", []byte(`{"leak":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"..%2Fsecret",
		"..%2F..%2Fsecret",
		"%2E%2E%2Fsecret",
		"not-a-key",
		strings.Repeat("a", 63),
		strings.Repeat("A", 64), // uppercase hex is not a key either
	} {
		resp, err := http.Get(url + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/results/%s = %d, want 404", key, resp.StatusCode)
		}
		if strings.Contains(body.String(), "leak") {
			t.Fatalf("GET /v1/results/%s leaked a file outside the results dir", key)
		}
	}
	// Defense in depth: the store rejects malformed keys even when called
	// directly, so no future endpoint can reintroduce the traversal.
	if _, err := srv.store.readArtifact("../secret"); err == nil {
		t.Fatal("store.readArtifact accepted a traversal key")
	}
	if _, err := srv.store.loadGraph("../secret"); err == nil {
		t.Fatal("store.loadGraph accepted a traversal hash")
	}
}

// Admission caps are enforced atomically with acceptance: N racing
// submissions against a queue with room for one must admit exactly one.
func TestAdmissionAtomicUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	lim := admitLimits{ClientInFlight: 64, HostInFlight: 64, QueueCap: 1}
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := jobSpec{V: 1, Spec: fmt.Sprintf("chain:%d", i+2), M: 2, MaxK: 1, Solver: "dense"}
			if _, err := s.accept(spec, 0, "c", "h", time.Second, lim); err == nil {
				admitted.Add(1)
			} else {
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if admitted.Load() != 1 || rejected.Load() != 15 {
		t.Fatalf("QueueCap=1 admitted %d of 16 concurrent submissions, want exactly 1", admitted.Load())
	}
}

// The per-client cap keys off a request-supplied string; the per-host cap
// backstops it so varying that string cannot buy unbounded queue share.
func TestHostCapStopsClientNameBypass(t *testing.T) {
	srv, url := newTestServer(t, Config{
		Workers: 1, ClientInFlight: 1, HostInFlight: 3,
		WrapOperator: stallWrap(30 * time.Millisecond),
	})
	running := submit(t, url, JobRequest{Spec: "chain:48", M: 8, MaxK: 4, Solver: "lanczos", Client: "alias-0"}, http.StatusAccepted)
	waitState(t, srv, running.ID, StateRunning)
	for i := 1; i < 3; i++ {
		submit(t, url, JobRequest{Spec: fmt.Sprintf("chain:%d", 20+i), M: 8, MaxK: 4, Solver: "lanczos", Client: fmt.Sprintf("alias-%d", i)}, http.StatusAccepted)
	}
	status, fields := submitRaw(t, url, "", JobRequest{Spec: "chain:28", M: 8, MaxK: 4, Client: "alias-3"})
	if f := faultOf(t, fields); status != http.StatusTooManyRequests || f.Kind != "host_limit" {
		t.Fatalf("4th client alias from one address = %d %+v, want 429 host_limit", status, f)
	}
}

// Two daemons must not share a data dir: the persist lock refuses the
// second opener.
func TestDataDirLockIsExclusive(t *testing.T) {
	dir := t.TempDir()
	srv1, _ := newTestServer(t, Config{DataDir: dir, Workers: 1})
	defer srv1.Close()
	if _, err := New(Config{DataDir: dir}); err == nil {
		t.Fatal("second daemon opened an already-locked data dir")
	}
}

// A write killed mid-commit leaves its temp file beside its target: the
// compacted job journal in the data dir, an upload in graphs/, an
// artifact in results/. Opening the data dir removes all three.
func TestOpenRemovesStaleTempsEverywhereItWrites(t *testing.T) {
	dir := t.TempDir()
	var planted []string
	for _, d := range []string{dir, graphsDir(dir), resultsDir(dir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		path := d + "/.persist-123456.tmp"
		if err := persist.WriteFileAtomic(path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		planted = append(planted, path)
	}
	newTestServer(t, Config{DataDir: dir, Workers: 1})
	for _, path := range planted {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived opening the data dir (stat: %v)", path, err)
		}
	}
}

// A data dir whose WAL predates internal/jobs must replay unchanged.
// testdata/parentwal was written by cmd/graphiod built at commit e72e6c8,
// run as `graphiod -workers 1 -retain-jobs 4`: it took two fresh jobs, 40
// resubmissions of one of them (cache hits), a job failed by
// -timeout-ms 1 and one more fresh job, then a SIGTERM; the restart
// compacted the WAL into meta and result records; one more fresh job and
// one more hit followed, and a final SIGTERM. want.json is that daemon's
// own replay of the directory: its job rows, result index and next ID.
func TestParentWALReplays(t *testing.T) {
	dir := t.TempDir()
	src := "testdata/parentwal"
	entries, err := os.ReadDir(src + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(resultsDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile(t, src+"/jobs.jsonl", walPath(dir))
	for _, e := range entries {
		copyFile(t, src+"/results/"+e.Name(), resultsDir(dir)+"/"+e.Name())
	}
	raw, err := os.ReadFile(src + "/want.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Jobs    []JobInfo         `json:"jobs"`
		Results map[string]string `json:"results"`
		NextID  int               `json:"next_id"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	srv, url := newTestServer(t, Config{DataDir: dir, Workers: 1, RetainJobs: 4})
	if got := srv.store.list(); !reflect.DeepEqual(got, want.Jobs) {
		t.Fatalf("replayed job rows:\n%+v\nwant:\n%+v", got, want.Jobs)
	}
	// Every result-index entry is a cache hit with its artifact hash, and
	// the first new job takes the next ID.
	specs := []JobRequest{
		{Spec: "chain:16", M: 4, MaxK: 2, Solver: "dense"},
		{Spec: "fft:4", M: 8, MaxK: 8, Solver: "dense"},
		{Spec: "bhk:5", M: 2, MaxK: 4, Solver: "dense"},
		{Spec: "fft:3", M: 4, MaxK: 4, Solver: "dense"},
	}
	if len(specs) != len(want.Results) {
		t.Fatalf("want.json indexes %d results, the test resubmits %d", len(want.Results), len(specs))
	}
	for i, req := range specs {
		hit := submit(t, url, req, http.StatusOK)
		if !hit.Cached || hit.ArtifactSHA == "" || hit.ArtifactSHA != want.Results[hit.Key] {
			t.Errorf("resubmit %s = %+v, want a cache hit on %q", req.Spec, hit.JobInfo, want.Results[hit.Key])
		}
		if wantID := fmt.Sprintf("j%06d", want.NextID+i); hit.ID != wantID {
			t.Errorf("resubmit %s got ID %s, want %s", req.Spec, hit.ID, wantID)
		}
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteFileAtomic(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
