package graphiod

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"graphio/internal/core"
	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// Artifact is the durable, content-addressed result of a bound job. It
// deliberately carries no wall times or host details: the same job must
// produce byte-identical artifacts across runs and restarts, or the cache
// replay guarantee (and the chaos gate that checks it) breaks. Timings
// live in the job status and the metrics, not here.
type Artifact struct {
	Key      string `json:"key"`
	Spec     string `json:"spec,omitempty"`
	GraphSHA string `json:"graph_sha,omitempty"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	MaxK     int    `json:"max_k"`
	Solver   string `json:"solver"`
	// Best is the strongest certificate across methods.
	Best MethodResult `json:"best"`
	// Methods lists every bound method attempted, in a fixed order.
	Methods []MethodResult `json:"methods"`
	// Degraded is set when any method failed outright or had to take the
	// escalation chain; the bound still stands, the provenance is noisier.
	Degraded bool `json:"degraded,omitempty"`
}

// MethodResult is one bound method's outcome inside an Artifact.
type MethodResult struct {
	Method     string   `json:"method"` // theorem4 | theorem5
	Bound      float64  `json:"bound"`
	BestK      int      `json:"best_k,omitempty"`
	SolverUsed string   `json:"solver_used,omitempty"`
	Degraded   bool     `json:"degraded,omitempty"`
	Fallbacks  []string `json:"fallbacks,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// resolveGraph materializes the job's graph: generator specs are rebuilt
// (they are pure functions of the spec), uploads are reread from the
// content store and hash-verified.
func (srv *Server) resolveGraph(spec jobSpec) (*graph.Graph, error) {
	if spec.Spec != "" {
		return BuildSpec(spec.Spec)
	}
	return srv.store.loadGraph(spec.GraphSHA)
}

// runMethod computes one spectral bound (theorem4 or theorem5) under ctx.
// Solver failures after the escalation chain come back inside the
// MethodResult, not as an error — only ctx expiry aborts the method.
func runMethod(ctx context.Context, g *graph.Graph, spec jobSpec, method string, wrap func(linalg.Operator) linalg.Operator) MethodResult {
	solver, err := core.ParseSolver(spec.Solver)
	if err != nil {
		return MethodResult{Method: method, Error: err.Error()}
	}
	opt := core.Options{M: spec.M, MaxK: spec.MaxK, Solver: solver, WrapOperator: wrap}
	if method == "theorem5" {
		opt.Laplacian = laplacian.Original
	}
	res, err := core.SpectralBoundContext(ctx, g, opt)
	if err != nil {
		return MethodResult{Method: method, Error: err.Error()}
	}
	return MethodResult{
		Method:     method,
		Bound:      res.Bound,
		BestK:      res.BestK,
		SolverUsed: res.SolverUsed.String(),
		Degraded:   res.Degraded,
		Fallbacks:  res.Fallbacks,
	}
}

// runJob executes one dequeued job end to end: resolve the graph, run both
// spectral methods under the per-job deadline, commit the artifact, journal
// the terminal transition. baseCtx is the worker pool's lifetime; when it
// dies mid-job the job is deliberately left non-terminal so the WAL replays
// it after restart.
func (srv *Server) runJob(baseCtx context.Context, j job) {
	timeout := time.Duration(j.Data.TimeoutMS) * time.Millisecond
	jctx, cancel := context.WithTimeout(baseCtx, timeout)
	defer cancel()
	scope := srv.scope.Child(j.ID)
	defer scope.Close()
	jctx = core.WithMemo(obs.WithScope(jctx, scope), srv.memo)

	start := obs.Now()
	spec := j.Data.Spec
	g, err := srv.resolveGraph(spec)
	if err != nil {
		srv.finishJob(baseCtx, j, KindInput, err.Error(), obs.Since(start))
		return
	}

	var wrap func(linalg.Operator) linalg.Operator
	if srv.cfg.WrapOperator != nil {
		id := j.ID
		wrap = func(op linalg.Operator) linalg.Operator { return srv.cfg.WrapOperator(id, op) }
	}

	art := Artifact{
		Key:  j.Key,
		Spec: spec.Spec, GraphSHA: spec.GraphSHA,
		N: g.N(), M: spec.M, MaxK: spec.MaxK, Solver: spec.Solver,
	}
	// Fixed method order keeps the artifact bytes stable run to run.
	// truncated marks a method the deadline (or shutdown) actually cut
	// short — jctx expiring *after* a method returned cleanly must not
	// discard that method's finished work, so expiry alone is not enough.
	truncated := false
	for _, method := range []string{"theorem4", "theorem5"} {
		mr := runMethod(jctx, g, spec, method, wrap)
		if jctx.Err() != nil && mr.Error != "" {
			// The clock ran out mid-method; its result certifies nothing
			// and partial artifacts are never committed.
			truncated = true
			break
		}
		art.Methods = append(art.Methods, mr)
		if mr.Error != "" || mr.Degraded {
			art.Degraded = true
		}
		if mr.Error == "" && (art.Best.Method == "" || mr.Bound > art.Best.Bound) {
			art.Best = mr
		}
	}
	wall := obs.Since(start)

	if truncated {
		if baseCtx.Err() != nil {
			// Shutdown took the worker down mid-job. No terminal WAL record:
			// the accept record re-queues this job on the next start.
			scope.Inc("serve.jobs.interrupted")
			return
		}
		srv.finishJob(baseCtx, j, KindDeadline,
			fmt.Sprintf("job exceeded its %v deadline (solver stalled or graph too large for the budget)", timeout), wall)
		return
	}
	if art.Best.Method == "" {
		// Every method failed even after the escalation chain; collect the
		// per-method errors so the client sees why nothing certified.
		msgs := make([]string, 0, len(art.Methods))
		for _, m := range art.Methods {
			msgs = append(msgs, m.Method+": "+m.Error)
		}
		srv.finishJob(baseCtx, j, KindSolver, strings.Join(msgs, "; "), wall)
		return
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		srv.finishJob(baseCtx, j, KindInternal, "encode artifact: "+err.Error(), wall)
		return
	}
	data = append(data, '\n')
	sha, err := srv.store.commitArtifact(j.Key, data)
	if err != nil {
		srv.finishJob(baseCtx, j, KindInternal, err.Error(), wall)
		return
	}
	if err := srv.store.jobs.Complete(j.ID, sha, wall, nil); err != nil {
		srv.log("job %s: journal done record: %v", j.ID, err)
		return
	}
	srv.scope.Observe("serve.job_wall", wall)
	srv.scope.Inc("serve.jobs.done")
	srv.log("job %s done: %s bound=%.4f in %v", j.ID, art.Best.Method, art.Best.Bound, wall.Round(time.Millisecond))
}

// finishJob journals a typed failure and records it in the metrics.
func (srv *Server) finishJob(baseCtx context.Context, j job, kind, msg string, wall time.Duration) {
	if baseCtx.Err() != nil && kind != KindDeadline {
		// Don't journal failures caused by our own shutdown.
		return
	}
	if _, err := srv.store.jobs.Fail(j.ID, "", kind, msg, wall); err != nil {
		srv.log("job %s: journal fail record: %v", j.ID, err)
		return
	}
	srv.scope.Inc("serve.jobs.failed")
	srv.scope.Inc("serve.fail." + kind)
	srv.log("job %s failed (%s): %s", j.ID, kind, msg)
}
