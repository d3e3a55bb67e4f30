package graphiod

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"graphio/internal/gen"
	"graphio/internal/graph"
	"graphio/internal/jobs"
)

// Job states. A job is terminal in StateDone, StateFailed, or StateShed;
// failures carry a typed kind (deadline, solver, input, ...) so clients
// can branch without parsing messages.
const (
	StateQueued  = jobs.Queued
	StateRunning = jobs.Running
	StateDone    = jobs.Done
	StateFailed  = jobs.Failed
	StateShed    = jobs.Shed
)

// Failure kinds for StateFailed.
const (
	// KindDeadline: the job hit its per-job deadline (e.g. a stalled
	// eigensolve); the rest of the queue keeps completing.
	KindDeadline = "deadline"
	// KindSolver: every bound method failed even after the escalation
	// chain; the artifact would certify nothing.
	KindSolver = "solver"
	// KindInput: the job's graph could not be materialized (upload vanished
	// from the data dir, generator spec invalid at run time).
	KindInput = "input"
	// KindInternal: the daemon could not commit the result durably.
	KindInternal = "internal"
)

// SpecError reports a generator spec the daemon cannot serve.
type SpecError struct {
	Spec   string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("graphiod: bad spec %q: %s", e.Spec, e.Reason)
}

// specGens maps generator names accepted in "name:size" specs to their
// constructors plus a vertex-count estimator used to refuse absurd sizes
// before allocating. Aliases (butterfly, hypercube) normalize to the
// canonical name so equivalent specs share one cache key.
var specGens = map[string]struct {
	canonical string
	build     func(size int) *graph.Graph
	vertices  func(size int) int
	maxSize   int
}{
	"fft":       {"fft", gen.FFT, func(l int) int { return (l + 1) << uint(l) }, 24},
	"butterfly": {"fft", gen.FFT, func(l int) int { return (l + 1) << uint(l) }, 24},
	"bhk":       {"bhk", gen.BellmanHeldKarp, func(l int) int { return 1 << uint(l) }, 24},
	"hypercube": {"bhk", gen.BellmanHeldKarp, func(l int) int { return 1 << uint(l) }, 24},
	"matmul":    {"matmul", gen.NaiveMatMulNary, func(n int) int { return 2*n*n + n*n*n + n*n*(n-1) }, 256},
	"strassen":  {"strassen", gen.Strassen, func(n int) int { return 8 * n * n }, 128},
	"inner":     {"inner", gen.InnerProduct, func(n int) int { return 3*n + 1 }, 1 << 20},
	"chain":     {"chain", gen.Chain, func(n int) int { return n }, 1 << 24},
	"tree":      {"tree", gen.BinaryTreeReduce, func(d int) int { return 1<<uint(d+1) - 1 }, 24},
	"grid":      {"grid", func(n int) *graph.Graph { return gen.Grid2D(n, n) }, func(n int) int { return n * n }, 4096},
}

// ParseSpec validates a "name:size" generator spec and returns its
// canonical form, without building the graph. Canonicalization makes
// equivalent specs ("FFT:10", "butterfly:10") share one cache key.
func ParseSpec(spec string, maxVertices int) (string, error) {
	name, sizeStr, ok := strings.Cut(strings.TrimSpace(strings.ToLower(spec)), ":")
	if !ok {
		return "", &SpecError{Spec: spec, Reason: "want name:size, e.g. fft:10"}
	}
	g, known := specGens[name]
	if !known {
		names := make([]string, 0, len(specGens))
		for n := range specGens {
			names = append(names, n)
		}
		slices.Sort(names)
		return "", &SpecError{Spec: spec, Reason: "unknown generator (have " + strings.Join(names, ", ") + ")"}
	}
	size, err := strconv.Atoi(sizeStr)
	if err != nil {
		return "", &SpecError{Spec: spec, Reason: "size is not an integer"}
	}
	if size < 1 {
		return "", &SpecError{Spec: spec, Reason: "size must be ≥ 1"}
	}
	if size > g.maxSize {
		return "", &SpecError{Spec: spec, Reason: fmt.Sprintf("size %d exceeds the %s cap %d", size, g.canonical, g.maxSize)}
	}
	if n := g.vertices(size); maxVertices > 0 && n > maxVertices {
		return "", &SpecError{Spec: spec, Reason: fmt.Sprintf("graph would have %d vertices, over the daemon's %d cap", n, maxVertices)}
	}
	return fmt.Sprintf("%s:%d", g.canonical, size), nil
}

// BuildSpec materializes a canonical generator spec. The spec must have
// passed ParseSpec; an unknown spec here is an input fault, not a panic.
func BuildSpec(spec string) (*graph.Graph, error) {
	name, sizeStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, &SpecError{Spec: spec, Reason: "not a name:size spec"}
	}
	g, known := specGens[name]
	if !known {
		return nil, &SpecError{Spec: spec, Reason: "unknown generator"}
	}
	size, err := strconv.Atoi(sizeStr)
	if err != nil || size < 1 || size > g.maxSize {
		return nil, &SpecError{Spec: spec, Reason: "bad size"}
	}
	return g.build(size), nil
}

// JobRequest is the POST /v1/jobs body. Exactly one of Spec or Graph
// selects the graph; M is required. Priority, Client, and TimeoutMS are
// operational and excluded from the cache key.
type JobRequest struct {
	// Spec is a generator spec like "fft:10" or "hypercube:12".
	Spec string `json:"spec,omitempty"`
	// Graph is an inline graph upload in the module's JSON format.
	Graph json.RawMessage `json:"graph,omitempty"`
	// M is the fast-memory size in elements. Required, ≥ 1.
	M int `json:"m"`
	// MaxK is h, the eigenvalue budget. Default 60, capped at 512.
	MaxK int `json:"max_k,omitempty"`
	// Solver picks the eigensolver backend: auto (default), dense,
	// lanczos, chebyshev.
	Solver string `json:"solver,omitempty"`
	// Priority orders the queue (higher first; default 0). Under memory
	// pressure the lowest-priority queued jobs are shed first.
	Priority int `json:"priority,omitempty"`
	// Client identifies the submitter for per-client in-flight limits
	// (default: the remote address).
	Client string `json:"client,omitempty"`
	// TimeoutMS deadlines this job (default and cap come from the daemon's
	// -job-timeout / -max-job-timeout flags).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// jobSpec is the canonical, result-affecting core of a job: what the cache
// key hashes. Operational fields (priority, client, deadline) are
// deliberately excluded — they cannot change the artifact, so two requests
// differing only in them share one result.
type jobSpec struct {
	// V bumps to invalidate every cached artifact on a format change,
	// mirroring experiments.Config.Hash.
	V int `json:"v"`
	// Spec is the canonical generator spec, "" for uploads.
	Spec string `json:"spec,omitempty"`
	// GraphSHA is the SHA-256 of the canonical graph JSON, "" for specs.
	GraphSHA string `json:"graph_sha,omitempty"`
	M        int    `json:"m"`
	MaxK     int    `json:"max_k"`
	Solver   string `json:"solver"`
}

// Key returns the content-addressed cache key: a stable hex digest over
// the canonical job spec, so repeated queries for the same
// (graph, M, MaxK, solver) are free and replays are byte-identical.
func (s jobSpec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A struct of ints and strings cannot fail to marshal; if it ever
		// does, an unforgeable key disables caching rather than risking a
		// stale artifact (same posture as Config.Hash).
		return "unhashable"
	}
	return sha256Hex(b)
}

// JobInfo is a job's wire representation (GET /v1/jobs responses).
type JobInfo struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Spec     string `json:"spec,omitempty"`
	GraphSHA string `json:"graph_sha,omitempty"`
	M        int    `json:"m"`
	MaxK     int    `json:"max_k"`
	Solver   string `json:"solver"`
	Priority int    `json:"priority,omitempty"`
	Client   string `json:"client,omitempty"`
	Status   string `json:"status"`
	Cached   bool   `json:"cached,omitempty"`
	// ArtifactSHA is the completed artifact's SHA-256; the chaos gate
	// compares it across crash/restart/cache-hit to prove byte-identity.
	ArtifactSHA string `json:"artifact_sha,omitempty"`
	WallMS      int64  `json:"wall_ms,omitempty"`
	Error       *Fault `json:"error,omitempty"`
}

// Fault is the typed error detail carried on failed jobs and structured
// HTTP error responses.
type Fault struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Limit rides on size/admission faults: the byte cap a 413 enforced,
	// or the queue/client cap behind a 429.
	Limit int64 `json:"limit,omitempty"`
}

func jobInfo(j job) JobInfo {
	spec := j.Data.Spec
	info := JobInfo{
		ID: j.ID, Key: j.Key,
		Spec: spec.Spec, GraphSHA: spec.GraphSHA,
		M: spec.M, MaxK: spec.MaxK, Solver: spec.Solver,
		Priority: j.Priority, Client: j.Data.Client,
		Status: j.State, Cached: j.Cached, ArtifactSHA: j.Result, WallMS: j.WallMS,
	}
	if j.State == StateFailed {
		info.Error = &Fault{Kind: j.ErrKind, Message: j.Err}
	}
	if j.State == StateShed {
		info.Error = &Fault{Kind: "shed", Message: "dropped under memory pressure; resubmit when the daemon has headroom"}
	}
	return info
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// isContentKey reports whether s has the only shape job keys and graph
// hashes ever take: a lowercase-hex SHA-256 digest. Everything that turns a
// client-supplied key into a filesystem path must check this first — a key
// like "../secrets" would otherwise escape the data dir via filepath.Join.
func isContentKey(s string) bool {
	return len(s) == 64 && strings.Trim(s, "0123456789abcdef") == ""
}
