// Package graphiod is the bound-as-a-service layer: a crash-safe HTTP/JSON
// daemon that accepts computation graphs (uploads or generator specs like
// "fft:10"), enqueues spectral lower-bound jobs, and serves results
// asynchronously — engineered for failure first.
//
// Durability. Jobs live in an internal/jobs task table journaled to
// jobs.jsonl in the data dir: every job is journaled before it is
// admitted and every terminal transition (done, failed, shed) before it
// takes effect, so a daemon SIGKILLed at any instant restarts into a
// state it had durably announced, and jobs accepted but unresolved run
// again. A worker's claim is local and unjournaled, and a failure is
// final (an attempt cap of 1). Results are content-addressed artifacts
// keyed by a stable hash over the result-affecting job fields — graph
// content, M, MaxK, solver — in the style of experiments.Config.Hash,
// committed atomically and verified by SHA-256 on replay, so a
// re-submitted identical request is served from the cache with bytes
// identical to the pre-crash run. Below that cache the daemon memoizes
// spectra (core.Memo) for its lifetime, so a job on a graph an earlier job
// solved, at another M, runs only the k-sweep and writes the artifact a
// full solve writes.
//
// Degradation. Jobs run under per-job deadlines on a bounded worker pool;
// a stalled eigensolve hits its deadline and resolves as a typed
// "deadline" failure while every other job keeps completing. Solver
// failures ride the core escalation chain and come back as typed Degraded
// results, not errors; a job succeeds if at least one bound method
// produced a certificate. Admission control keeps the daemon alive under
// load: a full queue answers 429 with Retry-After, each client has an
// in-flight cap (backstopped by a per-address cap, since the client name
// is request-supplied), the caps are enforced atomically with acceptance,
// and memory pressure sheds the lowest-priority queued jobs, one per
// check (typed "shed" outcome — the client may resubmit).
//
// Bounded state. Result keys are validated against the SHA-256 hex shape
// before they ever form a filesystem path, terminal job rows beyond a
// retention cap are pruned (their cached artifacts survive), and the job
// table rewrites its WAL to live state whenever the journal has grown to
// twice that, so replay time and memory track live work, not the
// daemon's lifetime job count.
package graphiod
