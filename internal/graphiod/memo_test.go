package graphiod

import (
	"bytes"
	"net/http"
	"sync"
	"testing"

	"graphio/internal/gen"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// spectrumSpans reads how many spectra srv has solved so far.
func spectrumSpans(srv *Server) int64 {
	return srv.scope.Registry().Snapshot().Timers["span.core.spectrum"].Count
}

// runToDone submits req and waits for its job to finish done.
func runToDone(t *testing.T, srv *Server, url string, req JobRequest) JobInfo {
	t.Helper()
	sub := submit(t, url, req, http.StatusAccepted)
	info := waitState(t, srv, sub.ID, StateDone, StateFailed)
	if info.Status != StateDone {
		t.Fatalf("job %+v ended %+v, want done", req, info)
	}
	return info
}

// A daemon solves each (graph, Laplacian) once: later jobs on the same
// graph at another M, from a spec or an upload, or with a deadline no
// solve could meet, are answered from its memo, and their artifacts are
// the bytes a fresh daemon writes.
func TestJobsReuseSolvedSpectra(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	srv, url := newTestServer(t, Config{Workers: 1})
	base := JobRequest{Spec: "bhk:8", M: 1, MaxK: 16, Solver: "dense"}
	runToDone(t, srv, url, base)
	if got := spectrumSpans(srv); got != 2 {
		t.Fatalf("first job solved %d spectra, want 2 (theorem4 and theorem5)", got)
	}

	var buf bytes.Buffer
	if err := gen.BellmanHeldKarp(8).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Each M still certifies a positive bound, at a different best k.
	reuse := []JobRequest{
		{Spec: "bhk:8", M: 2, MaxK: 16, Solver: "dense"},
		{Graph: buf.Bytes(), M: 3, MaxK: 16, Solver: "dense"},
		{Spec: "bhk:8", M: 4, MaxK: 16, Solver: "dense", TimeoutMS: 1},
	}
	var shas []string
	for _, req := range reuse {
		shas = append(shas, runToDone(t, srv, url, req).ArtifactSHA)
	}
	if got := spectrumSpans(srv); got != 2 {
		t.Errorf("jobs on a solved graph opened %d core.spectrum spans in total, want the first job's 2", got)
	}
	if got, want := srv.scope.Counter("core.memo.hits"), int64(2*len(reuse)); got != want {
		t.Errorf("core.memo.hits = %d, want %d", got, want)
	}

	// A fresh daemon per job: the artifact a memo hit produced must be the
	// one a full solve produces. The deadline is not part of the artifact,
	// and a full solve needs more than 1 ms.
	for i, req := range reuse {
		req.TimeoutMS = 0
		fresh, freshURL := newTestServer(t, Config{Workers: 1})
		if got := runToDone(t, fresh, freshURL, req).ArtifactSHA; got != shas[i] {
			t.Errorf("job %d: memoized artifact sha %s, fresh daemon %s", i, shas[i], got)
		}
	}

	srv.Close()
	if srv.memo != nil {
		t.Error("Close kept the memo")
	}
}

// Config.WrapOperator puts a wrapper on every iterative solve, and a
// wrapper may keep per-attempt state, so such a daemon never answers a
// job from the memo.
func TestWrapOperatorDaemonSolvesEveryJob(t *testing.T) {
	obs.Enable(true)
	defer obs.Enable(false)
	var mu sync.Mutex
	wrapped := map[string]int{}
	srv, url := newTestServer(t, Config{Workers: 1, WrapOperator: func(id string, op linalg.Operator) linalg.Operator {
		mu.Lock()
		wrapped[id]++
		mu.Unlock()
		return op
	}})
	var ids []string
	for _, M := range []int{1, 5, 9} {
		ids = append(ids, runToDone(t, srv, url, JobRequest{Spec: "bhk:6", M: M, MaxK: 8, Solver: "chebyshev"}).ID)
	}
	if got, want := spectrumSpans(srv), int64(2*len(ids)); got != want {
		t.Errorf("%d core.spectrum spans for %d jobs, want %d", got, len(ids), want)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if wrapped[id] < 2 {
			t.Errorf("job %s: wrapper saw %d solves, want one per method", id, wrapped[id])
		}
	}
	if got := srv.scope.Counter("core.memo.hits"); got != 0 {
		t.Errorf("core.memo.hits = %d with a wrapper set, want 0", got)
	}
}
