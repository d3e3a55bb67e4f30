package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphio/internal/graphiod"
	"graphio/internal/laplacian"
	"graphio/internal/obs"
)

// The serve workload runs graphiod in-process on a fresh data dir and
// drives it over HTTP on 127.0.0.1 with two callers in a closed loop:
// each submits POST /v1/jobs, polls GET /v1/jobs/{id} every pollInterval
// until the job ends, then takes the next job of a seed-generated
// sequence. It is the only workload through graphiod's HTTP, admission,
// WAL and result-cache layers, and it uses the dense solver as many small
// solves on two busy workers.
const (
	serveCallers = 2
	pollInterval = 5 * time.Millisecond
	serveMaxM    = 64
	serveMaxK    = 60 // graphiod's default max_k
	// One job in every repeatEvery repeats a (spec, M) whose first job
	// was submitted at least repeatLag jobs earlier, so it has completed
	// and the repeat is a cache hit. Every other job is a (spec, M) not
	// submitted before in the run.
	repeatEvery = 5
	repeatLag   = 16
	serveJobCap = 4096
	// jobTimeout fails a job the run would otherwise wait on past its
	// budget; the slowest job takes well under a second.
	jobTimeout = 30 * time.Second
)

// serveSpecs are small generator specs that stay on the dense path.
var serveSpecs = []string{
	"fft:4", "fft:5", "fft:6", "bhk:7", "bhk:8", "bhk:9", "matmul:4", "matmul:6",
	"strassen:4", "grid:16", "grid:20", "inner:64", "tree:8",
}

type serveJob struct {
	spec     string
	m        int
	repeatOf int // index of the first job with this (spec, M), or -1
}

// serveJobs generates a run's job sequence from the seed. It is
// stratified so runs on different seeds carry the same mix: one job in
// every repeatEvery repeats an earlier (spec, M), at a seed-chosen place
// in its block, and fresh jobs deal the specs from a reshuffled deck, each
// with an M not drawn before for that spec. Once all
// len(serveSpecs)×serveMaxM pairs are used, every job is a repeat.
func serveJobs(seed int64) []serveJob {
	rng := rand.New(rand.NewSource(subSeed(seed, "serve", 0)))
	used := map[string]map[int]bool{}
	free := len(serveSpecs) * serveMaxM
	var deck []string
	jobs := make([]serveJob, 0, serveJobCap)
	repeatAt := 0
	for i := 0; i < serveJobCap; i++ {
		if i%repeatEvery == 0 {
			repeatAt = i + rng.Intn(repeatEvery)
		}
		if i >= repeatLag && (i == repeatAt || free == 0) {
			j := rng.Intn(i - repeatLag + 1)
			for jobs[j].repeatOf >= 0 {
				j = jobs[j].repeatOf
			}
			jobs = append(jobs, serveJob{jobs[j].spec, jobs[j].m, j})
			continue
		}
		for {
			if len(deck) == 0 {
				deck = append(deck, serveSpecs...)
				rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
			}
			spec := deck[0]
			deck = deck[1:]
			if len(used[spec]) == serveMaxM {
				continue
			}
			if used[spec] == nil {
				used[spec] = map[int]bool{}
			}
			m := 1 + rng.Intn(serveMaxM)
			for used[spec][m] {
				m = 1 + rng.Intn(serveMaxM)
			}
			used[spec][m] = true
			free--
			jobs = append(jobs, serveJob{spec, m, -1})
			break
		}
	}
	return jobs
}

// jobRecord is what one caller observed for one job.
type jobRecord struct {
	job      serveJob
	id       string
	status   string
	hit      bool
	latency  time.Duration // submit to the observed terminal state
	submit   time.Duration // POST round trip
	polls    int
	wallMS   int64
	sha      string
	artifact json.RawMessage
	rejected int // non-2xx responses
	err      error
}

type serveClient struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// daemon is one in-process graphiod on its own data dir.
type daemon struct {
	srv *graphiod.Server
	dir string
	cl  *serveClient
}

// startDaemon opens graphiod on a fresh data dir, listens on 127.0.0.1 and
// waits for the first /readyz 200.
func startDaemon(ctx context.Context, dir string, tr *tracer) (*daemon, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := graphiod.New(graphiod.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, dir: dir, cl: &serveClient{
		base: "http://" + addr,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveCallers}},
		tr:   tr,
	}}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cl.base+"/readyz", nil)
		if err != nil {
			d.stop()
			return nil, err
		}
		resp, err := d.cl.hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // read-only body
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			d.stop()
			return nil, err
		}
	}
}

// stop drains and closes the daemon and removes its data dir.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx) // Close below hard-stops whatever is left
	d.srv.Close()
	d.cl.hc.CloseIdleConnections()
	_ = os.RemoveAll(d.dir) // scratch space; a leftover dir is harmless
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// request sends one API call and decodes a 2xx job response.
func (c *serveClient) request(ctx context.Context, method, path string, body []byte) (graphiod.SubmitResponse, int, error) {
	var out graphiod.SubmitResponse
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return out, resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return out, resp.StatusCode, json.Unmarshal(data, &out)
}

func terminal(status string) bool {
	return status == graphiod.StateDone || status == graphiod.StateFailed || status == graphiod.StateShed
}

// do runs one job to its terminal state, giving up after jobTimeout.
func (c *serveClient) do(ctx context.Context, job serveJob) jobRecord {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	rec := jobRecord{job: job}
	body, err := json.Marshal(graphiod.JobRequest{Spec: job.spec, M: job.m})
	if err != nil {
		rec.err = err
		return rec
	}
	root := c.tr.start("serve.job", job.spec, nil)
	defer root.end()
	t0 := obs.Now()
	sp := c.tr.start("graphiod.submit", job.spec, root)
	info, code, err := c.request(ctx, http.MethodPost, "/v1/jobs", body)
	sp.end()
	rec.submit = obs.Since(t0)
	for {
		if err != nil {
			if code != 0 {
				rec.rejected++
			}
			rec.err = err
			return rec
		}
		if rec.id == "" {
			rec.id, rec.hit = info.ID, info.Cached
			if root != nil {
				root.Req = info.ID
			}
		}
		if terminal(info.Status) {
			break
		}
		if err := sleepCtx(ctx, pollInterval); err != nil {
			rec.err = err
			return rec
		}
		sp := c.tr.start("graphiod.poll", rec.id, root)
		info, code, err = c.request(ctx, http.MethodGet, "/v1/jobs/"+rec.id, nil)
		sp.end()
		rec.polls++
	}
	rec.latency = obs.Since(t0)
	rec.status, rec.sha, rec.wallMS, rec.artifact = info.Status, info.ArtifactSHA, info.WallMS, info.Result
	return rec
}

// drive runs the closed loop: serveCallers callers take jobs in order
// until the deadline passes (zero: none) or limit jobs have been taken.
// It returns the records, indexed like jobs, and the phase's wall time.
func (c *serveClient) drive(ctx context.Context, jobs []serveJob, limit int, deadline time.Duration) ([]jobRecord, time.Duration) {
	recs := make([]jobRecord, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := obs.Now()
	for w := 0; w < serveCallers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (deadline == 0 || obs.Since(start) < deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				recs[i] = c.do(ctx, jobs[i])
			}
		}()
	}
	wg.Wait()
	return recs[:min(int(next.Load()), limit)], obs.Since(start)
}

// checkJobs is the serve correctness gate. Both methods of every artifact
// must match the bound the reference spectra give, and every job of one
// (spec, M) — cache hits included — must carry the artifact SHA of the
// run's first computation of it.
func checkJobs(r *run, recs []jobRecord, refs refSet) (done []jobRecord, degraded int) {
	first := map[string]string{}
	for _, rec := range recs {
		misses, deg := checkJob(rec, refs, first)
		r.op(misses...)
		if deg {
			degraded++
		}
		if rec.err == nil && rec.status == graphiod.StateDone {
			done = append(done, rec)
		}
	}
	return done, degraded
}

func checkJob(rec jobRecord, refs refSet, first map[string]string) (misses []string, degraded bool) {
	what := fmt.Sprintf("job %s (%s, M=%d)", rec.id, rec.job.spec, rec.job.m)
	if rec.err != nil {
		return []string{what + ": " + rec.err.Error()}, false
	}
	if rec.status != graphiod.StateDone {
		return []string{fmt.Sprintf("%s ended %s", what, rec.status)}, false
	}
	var art graphiod.Artifact
	if err := json.Unmarshal(rec.artifact, &art); err != nil {
		return []string{what + ": artifact: " + err.Error()}, false
	}
	key := fmt.Sprintf("%s/%d", rec.job.spec, rec.job.m)
	if sha, ok := first[key]; !ok {
		first[key] = rec.sha
	} else if sha != rec.sha {
		misses = append(misses, fmt.Sprintf("%s: artifact_sha %s, first computation had %s (cached=%v)", what, rec.sha, sha, rec.hit))
	}
	seen := map[string]bool{}
	best := 0.0
	for _, mr := range art.Methods {
		kind := laplacian.OutDegreeNormalized
		if mr.Method == "theorem5" {
			kind = laplacian.Original
		}
		ref := refs[specKey(rec.job.spec, kind)]
		switch {
		case ref == nil:
			misses = append(misses, fmt.Sprintf("%s: no reference for %s %s", what, rec.job.spec, mr.Method))
		case mr.Error != "":
			misses = append(misses, fmt.Sprintf("%s: %s failed: %s", what, mr.Method, mr.Error))
		default:
			misses = append(misses, nonEmpty(checkBound(what+" "+mr.Method, mr.Bound, ref, serveMaxK, rec.job.m, kind == laplacian.Original))...)
			best = math.Max(best, mr.Bound)
		}
		seen[mr.Method] = true
	}
	if !seen["theorem4"] || !seen["theorem5"] {
		misses = append(misses, fmt.Sprintf("%s: artifact lacks a method (has %d)", what, len(art.Methods)))
	}
	if !closeTo(art.Best.Bound, best) {
		misses = append(misses, fmt.Sprintf("%s: best bound %.10g is not the larger method bound %.10g", what, art.Best.Bound, best))
	}
	return misses, art.Degraded
}

func runServe(ctx context.Context, p params) (*run, error) {
	r := newRun()
	jobs := serveJobs(p.seed)
	dir := filepath.Join(p.work, fmt.Sprintf("serve-%d", os.Getpid()))
	var refs refSet
	var d *daemon
	open := func() (err error) {
		if d != nil {
			d.stop()
		}
		if refs, err = loadRefs(); err != nil {
			return err
		}
		d, err = startDaemon(ctx, dir, nil)
		return err
	}
	if p.trace {
		if err := open(); err != nil {
			return nil, err
		}
		return tracedServe(ctx, p, r, d, jobs, refs)
	}
	setup, err := timeSetup(open)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "s")
	recs, wall := d.cl.drive(ctx, jobs, len(jobs), p.seconds)
	d.stop()
	r = summarizeServe(r, recs, refs, wall, fsType(p.work))
	recs = nil
	// Measured once the daemon is closed: its job table grows with every
	// job, so an open daemon's heap would grow with throughput.
	r.set("heap_retained_mb", retainedMB(), "MB")
	return r, nil
}

// summarizeServe checks every job of the measured phase and sets the
// end-to-end metrics.
func summarizeServe(r *run, recs []jobRecord, refs refSet, wall time.Duration, fs string) *run {
	done, degraded := checkJobs(r, recs, refs)
	var lat []float64
	hits, seenGraph, repeats := 0, 0, 0
	specSeen := map[string]bool{}
	for _, rec := range recs {
		switch {
		case rec.job.repeatOf >= 0:
			repeats++
		case specSeen[rec.job.spec]:
			seenGraph++
		}
		specSeen[rec.job.spec] = true
	}
	for _, rec := range done {
		lat = append(lat, rec.latency.Seconds())
		if rec.hit {
			hits++
		}
	}
	r.set("ops_per_s", float64(len(done))/wall.Seconds(), "1/s")
	r.set("op_p50_s", median(lat), "s")
	r.set("op_p90_s", quantile(lat, 0.9), "s")
	r.note("op = one graphiod job, submit to observed terminal state; %d callers, closed loop, poll every %v; daemon defaults (2 workers); data dir on %s",
		serveCallers, pollInterval, fs)
	r.note("%d jobs in %.2f s: %d done, %d cache hits (%d repeats drawn), %d fresh (spec, M) on a graph seen before in the run, %d on a first-seen graph",
		len(recs), wall.Seconds(), len(done), hits, repeats, seenGraph, len(recs)-seenGraph-repeats)
	r.note("latency samples %d (p90 has %d beyond it); fail_ratio %d/%d; degraded_ratio %d/%d",
		len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat)))), r.failed, r.attempted, degraded, len(done))
	r.note("setup_s is the median of %d set-ups (reference load, daemon open, listen, first /readyz 200)", setupRepeats)
	return r
}

// tracedServe runs the first half of the time untraced, then the same
// jobs again on a fresh daemon with spans around every POST and poll.
func tracedServe(ctx context.Context, p params, r *run, d *daemon, jobs []serveJob, refs refSet) (*run, error) {
	recs1, wall1 := d.cl.drive(ctx, jobs, len(jobs), p.seconds/2)
	d.stop()
	checkJobs(r, recs1, refs)

	tr := newTracer()
	d2, err := startDaemon(ctx, d.dir, tr)
	if err != nil {
		return nil, err
	}
	recs2, wall2 := d2.cl.drive(ctx, jobs, len(recs1), 0)
	d2.stop()
	ms := serveLayerMetrics(r, recs2, refs)
	ms["trace.overhead_ratio"] = metric{ratio(wall2.Seconds(), wall1.Seconds()), "ratio"}
	r.setAll(ms)
	path, err := tr.writeFile(filepath.Join(p.work, "trace"), "serve", p.seed)
	if err != nil {
		return nil, err
	}
	r.note("untraced phase: %d jobs in %.2f s; traced phase: the same jobs in %.2f s; spans in %s",
		len(recs1), wall1.Seconds(), wall2.Seconds(), path)
	return r, nil
}

// serveLayerMetrics checks the traced phase's jobs and derives graphiod's
// per-layer metrics from them.
func serveLayerMetrics(r *run, recs []jobRecord, refs refSet) map[string]metric {
	done, degraded := checkJobs(r, recs, refs)
	var submit, hit, runS, wait, polls []float64
	rejected := 0
	for _, rec := range recs {
		rejected += rec.rejected
	}
	for _, rec := range done {
		if rec.hit {
			hit = append(hit, rec.latency.Seconds())
			continue
		}
		w := float64(rec.wallMS) / 1000
		submit = append(submit, rec.submit.Seconds())
		runS = append(runS, w)
		wait = append(wait, rec.latency.Seconds()-w)
		polls = append(polls, float64(rec.polls))
	}
	return map[string]metric{
		"graphiod.submit_p50_s":  {median(submit), "s"},
		"graphiod.hit_p50_s":     {median(hit), "s"},
		"graphiod.hit_ratio":     {ratio(float64(len(hit)), float64(len(done))), "ratio"},
		"graphiod.run_p50_s":     {median(runS), "s"},
		"graphiod.wait_p50_s":    {median(wait), "s"},
		"graphiod.polls_per_job": {ratio(sum(polls), float64(len(polls))), "count"},
		"graphiod.rejected":      {float64(rejected), "count"},
		"core.degraded_ratio":    {ratio(float64(degraded), float64(len(done))), "ratio"},
	}
}
