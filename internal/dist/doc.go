// Package dist scales the experiment sweep beyond one process: a
// coordinator owns the sweep's outDir and shards its experiment manifest;
// stateless workers claim shards over a small HTTP/JSON API, run them
// through the ordinary experiments.RunAll path, and upload the resulting
// tables for the coordinator to merge. The merged directory is
// indistinguishable from a single-process sweep — same manifest journal,
// same -resume semantics, and a report.txt byte-identical to what one
// process would have written for the same surviving experiments.
//
// Fault tolerance is lease-based, on an internal/jobs task table whose
// tasks are the shards. A claim grants a shard lease with a TTL; the
// worker renews it while the shard runs. A worker that is SIGKILLed,
// wedged, or partitioned stops renewing, its lease expires, and the shard
// re-queues with exponential backoff (plus deterministic jitter) for
// another worker to claim. A shard that keeps failing is poisoned after a
// capped number of attempts: the sweep completes without it, and the
// final report names the poisoned shards explicitly instead of silently
// shrinking. Because results are a pure function of the config hash both
// sides verify at claim and upload time, a late upload from a worker
// whose lease was reassigned is accepted and merged last-write-wins — the
// half-open network case (response lost after the server committed)
// therefore converges instead of diverging. The Sink hears of each
// failure in the same step as the shard's transition, and an upload that
// raced one commits again after it. Grants go longest processing time
// first by Config.WallHistory, which -resume re-reads.
//
// The coordinator itself is crash-safe: the table journals every lease
// grant and terminal transition to dist.json in outDir before it takes
// effect, so a killed coordinator restarted with -resume replays its
// assignment state, restores in-flight leases with a fresh TTL, and keeps
// accepting renewals from workers that survived the outage. A dist.json
// in an older record format is refused on -resume, naming the file; run
// without -resume to start over. Workers ride out the gap on the same
// capped backoff they use for any transport error.
//
// Everything observable rides the obs scope tree: the coordinator opens a
// "dist" scope with one child per shard (live on /tasks while unresolved),
// and each worker wraps its shard runs in a scope named after the worker
// ID, so a metrics dump from a worker shows worker-<id>/sweep/<experiment>
// attribution per shard.
package dist
