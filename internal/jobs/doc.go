// Package jobs is the durable task table under graphiod's job queue and
// dist's sweep coordinator: the module's one task state machine, with one
// write-ahead log (WAL) record type and one replay path.
//
// A task is accepted Queued, claimed Running, and ends Done, Failed or
// Shed. Each transition that must survive a crash is appended to a
// CRC-framed persist.Journal and fsynced before it takes effect, and
// replay runs the same apply step as the live transition, so a process
// killed at any instant reopens into a state it had durably announced.
//
// With Options.LeaseTTL set (dist), a claim is a journaled lease that its
// owner must renew within the TTL; a lapsed lease burns the attempt, and
// replay re-arms open leases with a fresh TTL. Without it (graphiod), a
// claim is local and unjournaled, and a restart re-queues the task. A
// failed attempt re-queues the task behind an exponential backoff until
// Options.MaxAttempts; then the task fails for good. A completion wins
// from any state, so a result that lands after its lease lapsed counts.
// Options.Failed hears of each failed attempt in the same step as the
// transition, under the table lock. After a failed append the table
// rewrites its journal from memory, so the next transition lands.
//
// A result index maps task keys to results (such as artifact hashes), so
// a later accept of a known key is born Done; its accept and done records
// go to the journal in one append, with one fsync. Retention forgets the
// oldest terminal tasks. Compaction rewrites the WAL to live state once
// it holds twice what a rewrite writes, so a rewrite costs about one
// record per append however many tasks are retained, and there is no
// schedule to set. A compacted journal replays into the table the one it
// replaced replays into, but for lease deadlines and backoffs, which
// replay re-arms from the clock; when Verify refuses results, the old
// journal can also bring back tasks retention had forgotten.
// Every state change updates a queued count, a terminal count, the set
// of live tasks and the admission order, so no request scans the
// retained tasks: only List, Evict and compaction visit them all.
// The table emits no metrics; callers count and log transitions.
package jobs
