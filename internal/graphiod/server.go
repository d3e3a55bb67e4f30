package graphiod

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/core"
	"graphio/internal/graph"
	"graphio/internal/linalg"
	"graphio/internal/obs"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// DataDir roots the WAL, the graph content store, and the artifact
	// cache. Required.
	DataDir string
	// Workers sizes the bound-computation pool. Default 2.
	Workers int
	// QueueCap caps queued (not yet running) jobs; past it submissions get
	// 429 + Retry-After. Default 256.
	QueueCap int
	// ClientInFlight caps one client's queued+running jobs. Default 16.
	ClientInFlight int
	// HostInFlight caps one remote address's queued+running jobs across
	// every client name it claims (the client field is request-supplied and
	// must not be a way around the cap). Default 4 × ClientInFlight.
	HostInFlight int
	// RetainJobs bounds the terminal jobs kept in the status table and the
	// compacted WAL; beyond it the oldest are forgotten (their cached
	// artifacts survive). Default 4096.
	RetainJobs int
	// ArtifactTTL, when > 0, expires the artifact cache: result files older
	// than the TTL whose job row retention already pruned are deleted on
	// startup and then hourly. Rows pin their artifacts, so a TTL shorter
	// than a job's lifetime in the status table has no effect on it.
	// 0 (the default) keeps artifacts forever.
	ArtifactTTL time.Duration
	// MaxGraphBytes caps an uploaded graph's JSON size; oversized uploads
	// get a structured 413. Default graph.DefaultReadLimit (64 MiB).
	MaxGraphBytes int64
	// MaxVertices caps generated and uploaded graph sizes. Default 1<<22.
	MaxVertices int
	// DefaultTimeout is the per-job deadline when the request names none;
	// MaxTimeout caps what a request may ask for. Defaults 2m / 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>"
	// on every endpoint except /healthz and /readyz.
	AuthToken string
	// MemSoftLimit, when > 0, sheds the lowest-priority queued jobs while
	// MemUsage() exceeds it. MemUsage is injectable for tests; nil means
	// runtime heap usage.
	MemSoftLimit int64
	MemUsage     func() int64
	// WrapOperator, when non-nil, wraps the Laplacian operator each
	// iterative solve sees, per job — the fault-injection seam the chaos
	// tests use to stall one specific job.
	WrapOperator func(jobID string, op linalg.Operator) linalg.Operator
	// Log receives daemon log lines; nil discards them.
	Log func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.ClientInFlight <= 0 {
		c.ClientInFlight = 16
	}
	if c.HostInFlight <= 0 {
		c.HostInFlight = 4 * c.ClientInFlight
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	if c.MaxGraphBytes <= 0 {
		c.MaxGraphBytes = graph.DefaultReadLimit
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 1 << 22
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MemUsage == nil {
		c.MemUsage = func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
	}
	return c
}

// defaultMaxK and maxMaxK bound the eigenvalue budget a request may ask
// for; h much past the paper's sweep sizes only buys wall time.
const (
	defaultMaxK = 60
	maxMaxK     = 512
)

// Server is the bound-as-a-service daemon: a WAL-backed job queue, a
// bounded worker pool, and the HTTP API over them. Construct with New,
// serve with Start or Handler, stop with Drain then Close.
type Server struct {
	cfg   Config
	store *store
	scope *obs.Scope
	// memo holds the spectra this daemon has solved, so a job on a graph
	// an earlier job already solved (at another M) costs no eigensolve.
	memo *core.Memo

	// hard is the worker pool's lifetime: cancelled only on Close, so an
	// aborted job is left non-terminal for WAL replay. dispatch gates
	// picking up new queued jobs and dies first, on Drain.
	hard           context.Context
	cancelHard     context.CancelFunc
	dispatch       context.Context
	cancelDispatch context.CancelFunc

	wake     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	httpSrv   *http.Server
	serveDone chan struct{} // closed when the Serve goroutine exits
}

// New opens (or recovers) the data dir and starts the worker pool. Jobs
// the WAL shows accepted but unresolved — the daemon was SIGKILLed with
// them queued or running — are re-queued and start executing immediately,
// before any listener exists.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("graphiod: Config.DataDir is required")
	}
	st, err := openStore(cfg.DataDir, cfg.RetainJobs, cfg.Log)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:   cfg,
		store: st,
		scope: obs.NewScope("serve"),
		memo:  core.NewMemo(),
		wake:  make(chan struct{}, 1),
	}
	//lint:ignore ctx-flow the daemon's hard-deadline context is a process root: New is the top of the ownership tree, there is no caller ctx to thread
	srv.hard, srv.cancelHard = context.WithCancel(context.Background())
	srv.dispatch, srv.cancelDispatch = context.WithCancel(srv.hard)
	for i := 0; i < cfg.Workers; i++ {
		srv.wg.Add(1)
		go srv.worker()
	}
	if st.replayed > 0 {
		srv.log("recovered %d unresolved job(s) from the WAL", st.replayed)
		srv.scope.Add("serve.jobs.replayed", int64(st.replayed))
		srv.wakeWorkers()
	}
	if cfg.ArtifactTTL > 0 {
		srv.sweepArtifacts()
		srv.wg.Add(1)
		go srv.artifactSweeper()
	}
	return srv, nil
}

// artifactSweepInterval is how often the TTL sweep re-runs between the
// startup sweep and shutdown.
const artifactSweepInterval = time.Hour

func (srv *Server) sweepArtifacts() {
	removed, err := srv.store.sweepArtifacts(srv.cfg.ArtifactTTL)
	if err != nil {
		srv.log("artifact GC: %v", err)
		return
	}
	if removed > 0 {
		srv.scope.Add("serve.artifacts.expired", int64(removed))
		srv.log("artifact GC: removed %d artifact(s) older than %v", removed, srv.cfg.ArtifactTTL)
	}
}

// artifactSweeper re-runs the TTL sweep hourly. It exits with dispatch
// (Drain or Close) and is joined through srv.wg, so no sweep can race the
// store closing.
func (srv *Server) artifactSweeper() {
	defer srv.wg.Done()
	t := time.NewTicker(artifactSweepInterval)
	defer t.Stop()
	for {
		select {
		case <-srv.dispatch.Done():
			return
		case <-t.C:
			srv.sweepArtifacts()
		}
	}
}

func (srv *Server) log(format string, args ...interface{}) {
	if srv.cfg.Log != nil {
		srv.cfg.Log(format, args...)
	}
}

func (srv *Server) wakeWorkers() {
	select {
	case srv.wake <- struct{}{}:
	default:
	}
}

// worker drains the queue until dispatch dies; the job in hand always runs
// to its own deadline (or the hard stop) first.
func (srv *Server) worker() {
	defer srv.wg.Done()
	for {
		select {
		case <-srv.dispatch.Done():
			return
		case <-srv.wake:
		}
		for srv.dispatch.Err() == nil {
			srv.shedUnderPressure()
			// A claim without a lease TTL is never journaled, so it cannot fail.
			j, ok, _ := srv.store.jobs.Claim("")
			if !ok {
				break
			}
			srv.wakeWorkers() // let an idle sibling grab the next queued job
			srv.scope.SetGauge("serve.queue_depth", float64(srv.store.jobs.Queued()))
			srv.runJob(srv.hard, j)
		}
	}
}

// shedUnderPressure drops at most one lowest-priority queued job per check
// when memory usage sits above the soft limit. One job per check, not a
// loop: shedding a queued job frees almost nothing immediately (the job
// struct is tiny, and the default heap gauge only falls after a GC cycle),
// so looping until the gauge dropped would flush the entire queue —
// highest-priority jobs included — on a single excursion. Checks run on
// every submission and every worker dequeue, so sustained pressure still
// drains the queue steadily, lowest priority first. Each shed is
// journaled, typed, and counted.
func (srv *Server) shedUnderPressure() {
	if srv.cfg.MemSoftLimit <= 0 || srv.cfg.MemUsage() <= srv.cfg.MemSoftLimit {
		return
	}
	j, ok, err := srv.store.jobs.ShedLowest()
	if err != nil {
		srv.log("shed: %v", err)
	}
	if !ok {
		return
	}
	srv.scope.Inc("serve.jobs.shed")
	srv.log("job %s shed (priority %d) under memory pressure", j.ID, j.Priority)
}

// Drain stops admission and dispatch, then waits for in-flight jobs to
// finish (bounded by ctx). Queued jobs stay journaled in the WAL — the
// "unfinished jobs" a restart resumes. Safe to call once before Close.
func (srv *Server) Drain(ctx context.Context) error {
	srv.draining.Store(true)
	srv.cancelDispatch()
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("graphiod: drain: %w", ctx.Err())
	}
}

// Close hard-stops the daemon: cancels every in-flight job (left
// non-terminal for replay), stops the listener, releases the data dir and
// drops the memoized spectra.
func (srv *Server) Close() {
	srv.draining.Store(true)
	srv.cancelDispatch()
	srv.cancelHard()
	if srv.httpSrv != nil {
		_ = srv.httpSrv.Close()
		// Join the Serve goroutine so no handler races the store close below.
		<-srv.serveDone
	}
	srv.wg.Wait()
	srv.scope.Close()
	srv.store.close()
	srv.memo = nil
}

// Start listens on addr ("host:port"; port 0 picks one) and serves the API
// until Close. It returns the bound address for logging and scripts.
func (srv *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("graphiod: listen: %w", err)
	}
	srv.httpSrv = &http.Server{Handler: srv.Handler()}
	srv.serveDone = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		// Serve returns ErrServerClosed when Close stops the listener, by design.
		_ = srv.httpSrv.Serve(ln)
	}(srv.serveDone)
	return ln.Addr().String(), nil
}

// Handler returns the daemon's full HTTP API, auth middleware included:
// job submission and status under /v1/, health probes, and the obs debug
// endpoints (/metrics, /progress, /tasks, /debug/pprof/).
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", srv.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", srv.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", srv.handleJob)
	mux.HandleFunc("GET /v1/results/{key}", srv.handleResult)
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	mux.HandleFunc("GET /readyz", srv.handleReadyz)
	mux.Handle("/", obs.DebugHandler())
	return srv.auth(mux)
}

// auth enforces the shared bearer token on everything except the health
// probes, which load balancers must reach unauthenticated.
func (srv *Server) auth(next http.Handler) http.Handler {
	if srv.cfg.AuthToken == "" {
		return next
	}
	want := []byte("Bearer " + srv.cfg.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			srv.writeFault(w, http.StatusUnauthorized, Fault{Kind: "auth", Message: "missing or wrong bearer token"}, 0)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// SubmitResponse is the POST /v1/jobs (and GET /v1/jobs/{id}) body: the
// job's status plus, once done, the artifact inline.
type SubmitResponse struct {
	JobInfo
	Result json.RawMessage `json:"result,omitempty"`
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if srv.draining.Load() {
		srv.writeFault(w, http.StatusServiceUnavailable, Fault{Kind: "draining", Message: "daemon is draining for shutdown"}, 5)
		return
	}
	// The envelope cap leaves slack for the JSON fields around an
	// at-the-limit graph upload.
	r.Body = http.MaxBytesReader(w, r.Body, srv.cfg.MaxGraphBytes+64<<10)
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			srv.writeFault(w, http.StatusRequestEntityTooLarge,
				Fault{Kind: "size", Message: "request body over the upload cap", Limit: srv.cfg.MaxGraphBytes}, 0)
			return
		}
		srv.writeFault(w, http.StatusBadRequest, Fault{Kind: "input", Message: "bad JSON: " + err.Error()}, 0)
		return
	}
	spec, fault := srv.buildSpec(req)
	if fault != nil {
		status := http.StatusBadRequest
		if fault.Kind == "size" {
			status = http.StatusRequestEntityTooLarge
		}
		srv.writeFault(w, status, *fault, 0)
		return
	}

	host, _, splitErr := net.SplitHostPort(r.RemoteAddr)
	if splitErr != nil {
		host = r.RemoteAddr
	}
	client := req.Client
	if client == "" {
		client = host
	}
	timeout := srv.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	timeout = min(timeout, srv.cfg.MaxTimeout)

	// Shedding gets a chance to free room, then admission control runs
	// atomically with the acceptance inside store.accept — the caps and
	// the accept share one lock acquisition, so concurrent submissions
	// cannot collectively overshoot them.
	srv.shedUnderPressure()
	j, err := srv.store.accept(*spec, req.Priority, client, host, timeout, admitLimits{
		ClientInFlight: srv.cfg.ClientInFlight,
		HostInFlight:   srv.cfg.HostInFlight,
		QueueCap:       srv.cfg.QueueCap,
	})
	if err != nil {
		var ae *admitError
		if errors.As(err, &ae) {
			srv.writeFault(w, http.StatusTooManyRequests, ae.Fault, ae.RetryAfter)
			return
		}
		srv.writeFault(w, http.StatusInternalServerError, Fault{Kind: "internal", Message: err.Error()}, 0)
		return
	}
	srv.scope.Inc("serve.jobs.accepted")
	srv.scope.SetGauge("serve.queue_depth", float64(srv.store.jobs.Queued()))
	info := jobInfo(j)
	resp := SubmitResponse{JobInfo: info}
	status := http.StatusAccepted
	if info.Cached {
		srv.scope.Inc("serve.cache_hits")
		status = http.StatusOK
		if data, err := srv.store.readArtifact(info.Key); err == nil {
			resp.Result = data
		}
	} else {
		srv.wakeWorkers()
	}
	srv.writeJSON(w, status, resp)
}

// buildSpec validates a request into the canonical jobSpec, storing the
// uploaded graph content-addressed on the way. A non-nil Fault describes
// the rejection.
func (srv *Server) buildSpec(req JobRequest) (*jobSpec, *Fault) {
	if (req.Spec == "") == (len(req.Graph) == 0) {
		return nil, &Fault{Kind: "input", Message: "exactly one of spec or graph is required"}
	}
	if req.M < 1 {
		return nil, &Fault{Kind: "input", Message: "m (fast-memory size) must be ≥ 1"}
	}
	maxK := req.MaxK
	if maxK == 0 {
		maxK = defaultMaxK
	}
	if maxK < 1 || maxK > maxMaxK {
		return nil, &Fault{Kind: "input", Message: fmt.Sprintf("max_k must be in [1, %d]", maxMaxK)}
	}
	solver, err := core.ParseSolver(req.Solver)
	if err != nil {
		return nil, &Fault{Kind: "input", Message: err.Error()}
	}
	spec := &jobSpec{V: 1, M: req.M, MaxK: maxK, Solver: solver.String()}

	if req.Spec != "" {
		canonical, err := ParseSpec(req.Spec, srv.cfg.MaxVertices)
		if err != nil {
			return nil, &Fault{Kind: "input", Message: err.Error()}
		}
		spec.Spec = canonical
		return spec, nil
	}

	g, err := graph.ReadJSONLimit(bytes.NewReader(req.Graph), srv.cfg.MaxGraphBytes)
	if err != nil {
		var sizeErr *graph.SizeError
		if errors.As(err, &sizeErr) {
			return nil, &Fault{Kind: "size", Message: err.Error(), Limit: sizeErr.Limit}
		}
		return nil, &Fault{Kind: "input", Message: "graph: " + err.Error()}
	}
	if g.N() > srv.cfg.MaxVertices {
		return nil, &Fault{Kind: "input", Message: fmt.Sprintf("graph has %d vertices, over the daemon's %d cap", g.N(), srv.cfg.MaxVertices)}
	}
	// Re-encode to the canonical form so semantically identical uploads
	// (whitespace, field order) content-address identically.
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		return nil, &Fault{Kind: "internal", Message: "canonicalize graph: " + err.Error()}
	}
	sha, err := srv.store.storeGraph(buf.Bytes())
	if err != nil {
		return nil, &Fault{Kind: "internal", Message: err.Error()}
	}
	spec.GraphSHA = sha
	return spec, nil
}

func (srv *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := srv.store.get(r.PathValue("id"))
	if !ok {
		srv.writeFault(w, http.StatusNotFound, Fault{Kind: "not_found", Message: "no such job"}, 0)
		return
	}
	resp := SubmitResponse{JobInfo: info}
	if info.Status == StateDone {
		if data, err := srv.store.readArtifact(info.Key); err == nil {
			resp.Result = data
		}
	}
	srv.writeJSON(w, http.StatusOK, resp)
}

func (srv *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	srv.writeJSON(w, http.StatusOK, struct {
		Jobs []JobInfo `json:"jobs"`
	}{Jobs: srv.store.list()})
}

func (srv *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	// The {key} segment arrives percent-decoded, so a crafted request can
	// put "../" in it; readArtifact lets only the SHA-256 hex shape real
	// keys have reach the filesystem, and anything else is a 404 here.
	data, err := srv.store.readArtifact(r.PathValue("key"))
	if err != nil {
		srv.writeFault(w, http.StatusNotFound, Fault{Kind: "not_found", Message: "no artifact for that key"}, 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (srv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (srv *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if srv.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (srv *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		srv.log("write response: %v", err)
	}
}

// writeFault sends the structured error envelope every non-2xx response
// uses; retryAfter > 0 adds the Retry-After hint (429/503 admission).
func (srv *Server) writeFault(w http.ResponseWriter, status int, f Fault, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	srv.writeJSON(w, status, struct {
		Error Fault `json:"error"`
	}{Error: f})
}
