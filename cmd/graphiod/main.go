// Command graphiod serves spectral I/O lower bounds over HTTP: clients
// upload computation graphs (or name generator specs like fft:10), jobs
// run asynchronously on a bounded worker pool under per-job deadlines, and
// results are cached content-addressed so identical queries are free. The
// job queue is WAL-backed: a SIGKILLed daemon restarted on the same -data
// dir replays its journal and finishes every job it had accepted.
//
//	graphiod -data /var/lib/graphiod -addr :8080         # serve
//	graphiod submit -server http://localhost:8080 -spec fft:10 -m 64
//	graphiod wait   -server http://localhost:8080 -id j000000
//	graphiod metrics -server http://localhost:8080
//
// The first SIGINT/SIGTERM drains: admission stops (readyz goes 503),
// in-flight jobs finish and are journaled, queued jobs stay in the WAL for
// the next start. A second signal hard-stops. Set -auth-token (or
// GRAPHIO_TOKEN) to require a bearer token on every endpoint except the
// health probes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"graphio/internal/graph"
	"graphio/internal/graphiod"
	"graphio/internal/obs"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit":
			os.Exit(cmdSubmit(os.Args[2:]))
		case "wait":
			os.Exit(cmdWait(os.Args[2:], os.Stdout))
		case "metrics":
			os.Exit(cmdMetrics(os.Args[2:]))
		}
	}
	os.Exit(serve())
}

func serve() int {
	addr := flag.String("addr", "127.0.0.1:8080", "host:port to serve the API on (':0' picks a free port)")
	dataDir := flag.String("data", "", "data directory for the WAL, uploaded graphs, and result artifacts (required)")
	workers := flag.Int("workers", 2, "bound-computation worker pool size")
	queueCap := flag.Int("queue-cap", 256, "max queued jobs before submissions get 429 + Retry-After")
	clientCap := flag.Int("client-inflight", 16, "max queued+running jobs per client")
	hostCap := flag.Int("host-inflight", 0, "max queued+running jobs per remote address, across client names (0 = 4x -client-inflight)")
	retainJobs := flag.Int("retain-jobs", 4096, "terminal jobs kept in the status table and the compacted WAL; the oldest beyond this are forgotten (their cached artifacts survive)")
	artifactTTL := flag.Duration("artifact-ttl", 0, "expire cached result artifacts this much older than their last write, once their status row is pruned; swept on startup and hourly (0 keeps them forever)")
	maxGraphBytes := flag.Int64("max-graph-bytes", graph.DefaultReadLimit, "uploaded graph JSON size cap; larger uploads get a structured 413")
	maxVertices := flag.Int("max-vertices", 1<<22, "vertex cap for generated and uploaded graphs")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "default per-job deadline; a stalled solve fails typed 'deadline' at this point")
	maxJobTimeout := flag.Duration("max-job-timeout", 10*time.Minute, "cap on the per-job deadline a request may ask for")
	authToken := flag.String("auth-token", os.Getenv("GRAPHIO_TOKEN"), "require 'Authorization: Bearer <token>' on the API (default $GRAPHIO_TOKEN; empty disables auth)")
	memSoftLimit := flag.Int64("mem-soft-limit", 0, "heap bytes above which the lowest-priority queued jobs are shed (0 disables shedding)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before hard-stopping")
	ofl := obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "graphiod: -data is required")
		return 2
	}
	if err := ofl.Begin(); err != nil {
		fmt.Fprintf(os.Stderr, "graphiod: %v\n", err)
		return 1
	}
	// The daemon serves /metrics itself; metrics are always on.
	obs.Enable(true)
	finish := func() {
		if err := ofl.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "graphiod: %v\n", err)
		}
	}

	srv, err := graphiod.New(graphiod.Config{
		DataDir:        *dataDir,
		Workers:        *workers,
		QueueCap:       *queueCap,
		ClientInFlight: *clientCap,
		HostInFlight:   *hostCap,
		RetainJobs:     *retainJobs,
		ArtifactTTL:    *artifactTTL,
		MaxGraphBytes:  *maxGraphBytes,
		MaxVertices:    *maxVertices,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxJobTimeout,
		AuthToken:      *authToken,
		MemSoftLimit:   *memSoftLimit,
		Log: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "graphiod: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiod: %v\n", err)
		finish()
		return 1
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		srv.Close()
		fmt.Fprintf(os.Stderr, "graphiod: %v\n", err)
		finish()
		return 1
	}
	// Scripts parse this line for the bound address (':0' picks a port).
	fmt.Printf("graphiod listening on %s\n", bound)

	// Block until the first SIGINT/SIGTERM (or -timeout) cancels the obs
	// context, then drain: stop admission, finish in-flight jobs, leave
	// queued jobs journaled for the next start. The obs bundle's own
	// second-signal handler covers the hard stop.
	<-ofl.Context().Done()
	fmt.Fprintln(os.Stderr, "graphiod: draining (in-flight jobs finish; queued jobs stay journaled)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	err = srv.Drain(drainCtx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiod: %v; hard-stopping\n", err)
	}
	srv.Close()
	finish()
	if err != nil {
		return 1
	}
	return 0
}

// api wraps the three client subcommands' shared HTTP plumbing.
type api struct {
	server string
	token  string
	client *http.Client
}

func addClientFlags(fs *flag.FlagSet) (*string, *string) {
	server := fs.String("server", "http://127.0.0.1:8080", "graphiod base URL")
	token := fs.String("token", os.Getenv("GRAPHIO_TOKEN"), "bearer token (default $GRAPHIO_TOKEN)")
	return server, token
}

func (a *api) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, strings.TrimSuffix(a.server, "/")+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if a.token != "" {
		req.Header.Set("Authorization", "Bearer "+a.token)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// jobLine renders a job response in the key=value form the verify script
// parses.
func jobLine(j graphiod.JobInfo) string {
	line := fmt.Sprintf("id=%s key=%s status=%s cached=%v", j.ID, j.Key, j.Status, j.Cached)
	if j.ArtifactSHA != "" {
		line += " sha=" + j.ArtifactSHA
	}
	if j.Error != nil {
		line += fmt.Sprintf(" error=%s %q", j.Error.Kind, j.Error.Message)
	}
	return line
}

func cmdSubmit(args []string) int {
	fs := flag.NewFlagSet("graphiod submit", flag.ExitOnError)
	server, token := addClientFlags(fs)
	spec := fs.String("spec", "", "generator spec, e.g. fft:10, hypercube:12")
	graphFile := fs.String("graph", "", "upload this graph JSON file instead of a spec")
	m := fs.Int("m", 0, "fast-memory size (required)")
	maxK := fs.Int("max-k", 0, "eigenvalue budget h (daemon default if 0)")
	solver := fs.String("solver", "", "eigensolver: auto|dense|lanczos|chebyshev")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	client := fs.String("client", "", "client name for per-client limits (default: remote address)")
	timeoutMS := fs.Int64("timeout-ms", 0, "per-job deadline in ms (daemon default if 0)")
	_ = fs.Parse(args)

	req := graphiod.JobRequest{
		Spec: *spec, M: *m, MaxK: *maxK, Solver: *solver,
		Priority: *priority, Client: *client, TimeoutMS: *timeoutMS,
	}
	if *graphFile != "" {
		data, err := os.ReadFile(*graphFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphiod submit: %v\n", err)
			return 1
		}
		req.Graph = json.RawMessage(data)
	}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiod submit: %v\n", err)
		return 1
	}
	a := &api{server: *server, token: *token, client: http.DefaultClient}
	status, data, err := a.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiod submit: %v\n", err)
		return 1
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "graphiod submit: HTTP %d: %s\n", status, strings.TrimSpace(string(data)))
		return 1
	}
	var resp graphiod.SubmitResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		fmt.Fprintf(os.Stderr, "graphiod submit: bad response: %v\n", err)
		return 1
	}
	fmt.Println(jobLine(resp.JobInfo))
	return 0
}

// cmdWait polls each job named by -id until it ends, printing each as it
// ends; jobs that end in the same poll round print in -id order.
func cmdWait(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("graphiod wait", flag.ExitOnError)
	server, token := addClientFlags(fs)
	ids := fs.String("id", "", "comma-separated job IDs to wait for (required)")
	poll := fs.Duration("poll", 200*time.Millisecond, "status poll interval")
	timeout := fs.Duration("timeout", 5*time.Minute, "give up after this long")
	_ = fs.Parse(args)
	if *ids == "" {
		fmt.Fprintln(os.Stderr, "graphiod wait: -id is required")
		return 2
	}
	a := &api{server: *server, token: *token, client: http.DefaultClient}
	var pending []string
	for _, id := range strings.Split(*ids, ",") {
		if id = strings.TrimSpace(id); id != "" && !slices.Contains(pending, id) {
			pending = append(pending, id)
		}
	}
	allDone := true
	start := obs.Now()
	for len(pending) > 0 {
		if obs.Since(start) > *timeout {
			for _, id := range pending {
				fmt.Fprintf(os.Stderr, "graphiod wait: timed out waiting for %s\n", id)
			}
			return 1
		}
		var still []string
		for _, id := range pending {
			status, data, err := a.do(http.MethodGet, "/v1/jobs/"+id, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "graphiod wait: %v\n", err)
				return 1
			}
			if status != http.StatusOK {
				fmt.Fprintf(os.Stderr, "graphiod wait: %s: HTTP %d: %s\n", id, status, strings.TrimSpace(string(data)))
				return 1
			}
			var resp graphiod.SubmitResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				fmt.Fprintf(os.Stderr, "graphiod wait: bad response: %v\n", err)
				return 1
			}
			switch resp.Status {
			case graphiod.StateDone:
				fmt.Fprintln(stdout, jobLine(resp.JobInfo))
			case graphiod.StateFailed, graphiod.StateShed:
				fmt.Fprintln(stdout, jobLine(resp.JobInfo))
				allDone = false
			default:
				still = append(still, id)
			}
		}
		pending = still
		if len(pending) > 0 {
			timer := time.NewTimer(*poll)
			<-timer.C
		}
	}
	if !allDone {
		return 1
	}
	return 0
}

func cmdMetrics(args []string) int {
	fs := flag.NewFlagSet("graphiod metrics", flag.ExitOnError)
	server, token := addClientFlags(fs)
	_ = fs.Parse(args)
	a := &api{server: *server, token: *token, client: http.DefaultClient}
	status, data, err := a.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphiod metrics: %v\n", err)
		return 1
	}
	if status != http.StatusOK {
		fmt.Fprintf(os.Stderr, "graphiod metrics: HTTP %d\n", status)
		return 1
	}
	os.Stdout.Write(data) //lint:ignore errcheck terminal output, conventionally unchecked like fmt
	return 0
}
