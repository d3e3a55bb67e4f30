package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// Task states. Done, Failed and Shed are terminal.
const (
	Queued  = "queued"
	Running = "running"
	Done    = "done"
	Failed  = "failed"
	Shed    = "shed"
)

// KindExpired is the ErrKind of an attempt whose lease lapsed.
const KindExpired = "expired"

// Task is one row of the table. Callers always receive copies.
type Task[P any] struct {
	ID       string
	Key      string // result-index key
	Priority int    // higher is claimed first; ties go to the earlier accept
	Data     P      // the caller's fields, journaled with the accept
	Cached   bool   // accepted already Done from the result index

	State    string
	Attempts int // claims so far
	// Owner and Lease name the current claim while Running, otherwise the
	// last one. Lease is "" for a local claim.
	Owner, Lease string
	Expiry       time.Time // lease deadline
	NotBefore    time.Time // end of the retry backoff

	Result  string // Done: the result, e.g. an artifact hash
	WallMS  int64  // the last attempt's wall time
	ErrKind string // the last failure's kind and message
	Err     string

	seq      int // admission order
	accepted int // the priority Accept journaled; Reprioritize leaves it
}

// Options configures a Table; each service sets only what it uses.
type Options[P any] struct {
	Key func(id string, data P) string // a task's result-index key; nil means its ID
	// Verify, when non-nil, vets each result replay restores, once, after
	// retention: false on a retained done task re-queues it, keeping the
	// attempts, owner and wall time its records carry; false on an index
	// entry no retained done task restored drops it. Open rewrites the
	// journal once Verify refuses anything, so the change is durable.
	Verify func(key, result string) bool
	// Failed, when non-nil, hears of each failed attempt, a Fail or a
	// lapsed lease (ErrKind KindExpired), with the task moved to Queued or
	// Failed and Owner and Lease naming the failed claim. It runs under the
	// table lock, in the same step as the transition, so no caller sees the
	// new state before Failed has recorded it; it must not call the table.
	Failed func(Task[P])
	// LeaseTTL > 0 journals each claim as a lease that lapses unless
	// renewed within the TTL; 0 keeps claims memory-only.
	LeaseTTL    time.Duration
	MaxAttempts int           // claims per task; a failure of the last is terminal (min 1)
	RetryDelay  time.Duration // base of the backoff after a failed attempt
	Retain      int           // terminal tasks kept, oldest forgotten first (0: all)
	// Logf (required) receives failures the table absorbs and retries.
	Logf func(format string, args ...any)
}

// record is one journal frame. accept carries the task's data; other
// transitions name the task by ID. Compaction writes two snapshot kinds:
// result pins a result-index entry, and meta pins the ID and lease
// counters so neither is reissued.
type record struct {
	Kind     string `json:"kind"` // accept | claim | retry | done | fail | shed | result | meta
	ID       string `json:"id,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Owner    string `json:"owner,omitempty"`
	Lease    string `json:"lease,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	SHA      string `json:"sha,omitempty"` // the result, on done and result
	WallMS   int64  `json:"wall_ms,omitempty"`
	ErrKind  string `json:"err_kind,omitempty"`
	Error    string `json:"error,omitempty"`
	Key      string `json:"key,omitempty"`
	NextID   int    `json:"next_id,omitempty"`
	Leases   int    `json:"leases,omitempty"`
	// Data is an accept's task data: a JSON object whose keys are written
	// inline with the fields above. That is the shape of the accept
	// records in graphiod's jobs.jsonl from before it ran on this package,
	// so those journals replay unchanged.
	Data json.RawMessage `json:"-"`
}

// frame is record without its JSON methods.
type frame record

func (r record) MarshalJSON() ([]byte, error) {
	b, err := json.Marshal(frame(r))
	if err != nil || len(r.Data) <= len("{}") {
		return b, err
	}
	return append(append(b[:len(b)-1], ','), r.Data[1:]...), nil
}

func (r *record) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, (*frame)(r)); err != nil {
		return err
	}
	if r.Kind == "accept" {
		r.Data = append(json.RawMessage(nil), b...)
	}
	return nil
}

// Table is the durable task table; its methods are safe for concurrent
// use. P must be a struct: its JSON object is spliced into accept records.
type Table[P any] struct {
	path string
	opt  Options[P]

	mu      sync.Mutex
	wal     *persist.Journal
	tasks   map[string]*Task[P]
	results map[string]string // result index: key -> result
	seq     int
	nextID  int // next generated ID
	leases  int // leases granted so far
	records int // records in the journal

	// setState keeps these in step with every task's State, so that no
	// request scans the retained tasks: order holds them in admission
	// order, live the non-terminal ones, and queued and terminal count
	// the Queued and the terminal ones.
	order    []*Task[P]
	live     map[*Task[P]]struct{}
	queued   int
	terminal int
}

// Open replays the journal at path, creating it if absent. A CRC-valid
// record this package cannot read (such as one from an older format) is
// refused with an error naming the file, and so is a journal that Verify
// changed but that cannot be rewritten.
func Open[P any](path string, opt Options[P]) (*Table[P], error) {
	wal, raws, err := persist.OpenJournal(path)
	if err != nil {
		return nil, fmt.Errorf("jobs: open WAL: %w", err)
	}
	opt.MaxAttempts = max(opt.MaxAttempts, 1)
	if opt.Key == nil {
		opt.Key = func(id string, _ P) string { return id }
	}
	t := &Table[P]{path: path, opt: opt, wal: wal, tasks: map[string]*Task[P]{}, results: map[string]string{}, live: map[*Task[P]]struct{}{}, records: len(raws)}
	for i, raw := range raws {
		var rec record
		err := json.Unmarshal(raw, &rec)
		if err == nil {
			err = t.replay(rec)
		}
		if err != nil {
			_ = wal.Close()
			return nil, fmt.Errorf("jobs: corrupt WAL record %d in %s: %w", i+1, path, err)
		}
	}
	// Retention first, as the live table applied it to the journaled
	// states, so a journal and its compaction keep the same tasks however
	// many results fail Verify. A refused result changes the table, and
	// the journal is rewritten to match before anything else lands: it
	// still holds the done record of a task that now runs again, which the
	// next replay would count against retention.
	t.retainLocked()
	if t.verifyLocked() {
		if err := t.compactLocked(); err != nil {
			_ = t.wal.Close()
			return nil, fmt.Errorf("jobs: rewrite %s after refused results: %w", path, err)
		}
	}
	t.tidyLocked()
	return t, nil
}

// replay folds one journaled record into the table. Records naming an
// unknown task are skipped: compaction dropped its accept with it.
func (t *Table[P]) replay(rec record) error {
	task := t.tasks[rec.ID]
	switch rec.Kind {
	case "accept":
		var data P
		if err := json.Unmarshal(rec.Data, &data); err != nil {
			return err
		}
		t.insert(rec.ID, rec.Priority, data, rec.Cached)
	case "claim", "retry", "done", "fail", "shed":
		if task != nil {
			t.apply(task, rec)
		}
	case "result":
		t.results[rec.Key] = rec.SHA
	case "meta":
		t.nextID = max(t.nextID, rec.NextID)
		t.leases = max(t.leases, rec.Leases)
	default:
		return fmt.Errorf("unknown kind %q", rec.Kind)
	}
	return nil
}

// verifyLocked runs Verify once on each (key, result) pair replay
// restored: a retained done task whose result is gone or altered runs
// again, keeping what its records say of the attempts that produced it,
// and its index entry goes; an index entry no retained done task
// restored, such as one from the done record of a task retention forgot,
// goes if it fails. It reports whether it changed the table. Caller holds
// t.mu.
func (t *Table[P]) verifyLocked() (changed bool) {
	if t.opt.Verify == nil {
		return false
	}
	verdict := map[[2]string]bool{} // Verify's answer on each pair asked so far
	verify := func(key, sha string) bool {
		ok, asked := verdict[[2]string{key, sha}]
		if !asked {
			ok = t.opt.Verify(key, sha)
			verdict[[2]string{key, sha}] = ok
		}
		return ok
	}
	for _, task := range t.order {
		if task.State != Done || verify(task.Key, task.Result) {
			continue
		}
		if sha, ok := t.results[task.Key]; ok && sha == task.Result {
			delete(t.results, task.Key)
		}
		t.setState(task, Queued)
		task.Result = ""
		changed = true
	}
	for key, sha := range t.results {
		if !verify(key, sha) {
			delete(t.results, key)
			changed = true
		}
	}
	return changed
}

// insert adds a Queued task. A generated ID ("j" and a number) advances
// the ID counter, so a replayed one is never issued again. A task already
// under id is replaced, as when a caller reuses an ID that retention
// forgot and the journal still holds its first accept.
func (t *Table[P]) insert(id string, priority int, data P, cached bool) *Task[P] {
	if old := t.tasks[id]; old != nil {
		t.setState(old, Shed) // out of the queue and the live set
		t.terminal--
		t.order = slices.DeleteFunc(t.order, func(o *Task[P]) bool { return o == old })
	}
	task := &Task[P]{ID: id, Key: t.opt.Key(id, data), Priority: priority, Data: data, Cached: cached, seq: t.seq, accepted: priority}
	t.seq++
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= t.nextID {
		t.nextID = n + 1
	}
	t.tasks[id] = task
	t.setState(task, Queued)
	return task
}

// setState moves task to state, keeping the counts and the live set in
// step; a task with no state yet is new and joins the admission order.
// Every state change goes through here.
func (t *Table[P]) setState(task *Task[P], state string) {
	switch {
	case task.State == "":
		t.order = append(t.order, task)
	case task.State == Queued:
		t.queued--
	case terminal(task.State):
		t.terminal--
	}
	task.State = state
	switch {
	case state == Queued:
		t.queued++
	case terminal(state):
		t.terminal++
		delete(t.live, task)
		return
	}
	t.live[task] = struct{}{}
}

// apply moves task as rec describes, for live transitions once rec is
// durable and for replay. A claim arms its lease from now, which is how
// replay restores open leases with a fresh TTL.
func (t *Table[P]) apply(task *Task[P], rec record) {
	switch rec.Kind {
	case "claim":
		t.setState(task, Running)
		task.Owner, task.Lease = rec.Owner, rec.Lease
		if rec.Lease != "" {
			t.leases++
			task.Expiry = obs.Now().Add(t.opt.LeaseTTL)
		}
	case "retry":
		t.setState(task, Queued)
		task.ErrKind, task.Err, task.WallMS = rec.ErrKind, rec.Error, rec.WallMS
		task.NotBefore = obs.Now().Add(t.backoff(rec.Attempt))
	case "done":
		t.setState(task, Done)
		task.Result, task.WallMS, task.ErrKind, task.Err = rec.SHA, rec.WallMS, "", ""
		if task.Key != "" {
			t.results[task.Key] = rec.SHA
		}
	case "fail":
		t.setState(task, Failed)
		task.ErrKind, task.Err, task.WallMS = rec.ErrKind, rec.Error, rec.WallMS
	case "shed":
		t.setState(task, Shed)
	}
	task.carry(rec)
}

// carry sets what a snapshot record carries of the task's earlier
// records; on a live record this repeats what apply set, if anything.
func (task *Task[P]) carry(rec record) {
	task.Attempts = max(task.Attempts, rec.Attempt)
	if rec.Owner != "" || rec.Lease != "" {
		task.Owner, task.Lease = rec.Owner, rec.Lease
	}
	if rec.ErrKind != "" || rec.Error != "" {
		task.ErrKind, task.Err = rec.ErrKind, rec.Error
	}
	if rec.WallMS != 0 {
		task.WallMS = rec.WallMS
	}
}

// before orders claims: higher priority first, then admission order.
func (a *Task[P]) before(b *Task[P]) bool {
	return a.Priority > b.Priority || a.Priority == b.Priority && a.seq < b.seq
}

func terminal(state string) bool { return state == Done || state == Failed || state == Shed }

// bestLocked returns the best-ranked queued task whose backoff has ended
// by now, or nil. Caller holds t.mu.
func (t *Table[P]) bestLocked(now time.Time) *Task[P] {
	var pick *Task[P]
	for q := range t.live {
		if q.State == Queued && !now.Before(q.NotBefore) && (pick == nil || q.before(pick)) {
			pick = q
		}
	}
	return pick
}

// worstLocked returns the worst-ranked queued task, or nil. Caller holds
// t.mu.
func (t *Table[P]) worstLocked() *Task[P] {
	var worst *Task[P]
	for q := range t.live {
		if q.State == Queued && (worst == nil || worst.before(q)) {
			worst = q
		}
	}
	return worst
}

// appendLocked journals recs durably, with one write and one fsync; the
// caller applies the transitions only after a nil return. Caller holds
// t.mu.
func (t *Table[P]) appendLocked(recs ...record) error {
	raws := make([][]byte, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobs: marshal WAL record: %w", err)
		}
		raws[i] = b
	}
	//lint:ignore lock-blocking append-before-effect: every journaled transition appends under t.mu, so the record and the state change it describes are one atomic step
	if err := t.wal.Append(raws...); err != nil {
		// The journal refuses appends after a failed one until reopened.
		// Rewrite it from the table, which never took this transition, so
		// the next one can land without a restart.
		if cerr := t.compactLocked(); cerr != nil {
			t.opt.Logf("jobs: rewriting WAL after a failed append (will retry): %v", cerr)
		}
		return err
	}
	t.records += len(recs)
	return nil
}

// Accept adds a task under id, or under the next generated ID when id is
// "". A task whose key is in the result index is journaled as accept
// plus done, in one append, and returned Done and Cached. Otherwise
// admit, if non-nil, may refuse it after seeing every Queued and Running
// task; admit runs under the table lock, so its verdict and the insert
// are one atomic step, and it must not call the table.
func (t *Table[P]) Accept(id string, priority int, data P, admit func(live []Task[P]) error) (Task[P], error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return Task[P]{}, fmt.Errorf("jobs: marshal task data: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == "" {
		id = fmt.Sprintf("j%06d", t.nextID)
	}
	result, hit := t.results[t.opt.Key(id, data)]
	if !hit && admit != nil {
		live := make([]Task[P], 0, len(t.live))
		for task := range t.live {
			live = append(live, *task)
		}
		if err := admit(live); err != nil {
			return Task[P]{}, err
		}
	}
	recs := []record{{Kind: "accept", ID: id, Priority: priority, Cached: hit, Data: raw}}
	if hit {
		recs = append(recs, record{Kind: "done", ID: id, SHA: result})
	}
	if err := t.appendLocked(recs...); err != nil {
		return Task[P]{}, err
	}
	task := t.insert(id, priority, data, hit)
	if hit {
		t.apply(task, recs[1])
	}
	t.tidyLocked()
	return *task, nil
}

// Claim hands owner the best-ranked queued task not inside a retry
// backoff; ok is false when none is claimable. Under a LeaseTTL the claim
// is a journaled lease; otherwise it is memory-only and a restart
// re-queues the task.
func (t *Table[P]) Claim(owner string) (task Task[P], ok bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	pick := t.bestLocked(obs.Now())
	if pick == nil {
		return Task[P]{}, false, nil
	}
	rec := record{Kind: "claim", ID: pick.ID, Owner: owner, Attempt: pick.Attempts + 1}
	if t.opt.LeaseTTL > 0 {
		rec.Lease = fmt.Sprintf("L%06d", t.leases+1)
		if err := t.appendLocked(rec); err != nil {
			return Task[P]{}, false, err
		}
	}
	t.apply(pick, rec)
	return *pick, true, nil
}

// Renew extends task id's lease by LeaseTTL, reporting false once that
// lease is no longer held: it lapsed, or the task was resolved. Renewals
// are memory-only, since replay re-arms every open lease anyway.
func (t *Table[P]) Renew(id, lease string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	task, ok := t.tasks[id]
	if !ok || task.State != Running || task.Lease != lease {
		return false
	}
	task.Expiry = obs.Now().Add(t.opt.LeaseTTL)
	return true
}

// Complete journals task id's success from any state: a result landing
// after its lease lapsed, or after the task failed for good, still wins.
// Completing a Done task again changes nothing. Otherwise commit, if
// non-nil, first sees the task as it stands; it runs under the table
// lock, so nothing else happens to the task before the completion, an
// error from it refuses the completion, and it must not call the table.
func (t *Table[P]) Complete(id, result string, wall time.Duration, commit func(Task[P]) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	task, ok := t.tasks[id]
	if !ok {
		return fmt.Errorf("jobs: unknown task %s", id)
	}
	if task.State == Done {
		return nil
	}
	if commit != nil {
		if err := commit(*task); err != nil {
			return err
		}
	}
	rec := record{Kind: "done", ID: id, SHA: result, WallMS: wall.Milliseconds(), Attempt: task.Attempts}
	if err := t.appendLocked(rec); err != nil {
		return err
	}
	t.apply(task, rec)
	t.tidyLocked()
	return nil
}

// Fail ends the attempt holding task id under lease ("" for a local
// claim): the task re-queues behind a backoff, or fails for good on its
// last attempt. When that claim is no longer held, nothing changes: its
// attempt was already accounted for. An unknown id returns a zero Task.
func (t *Table[P]) Fail(id, lease, kind, msg string, wall time.Duration) (task Task[P], err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	held, ok := t.tasks[id]
	if !ok {
		return Task[P]{}, nil
	}
	if held.State == Running && held.Lease == lease {
		err = t.failLocked(held, kind, msg, wall)
	}
	return *held, err
}

// failLocked journals and applies the failure of task's current attempt,
// then tells Options.Failed. Caller holds t.mu.
func (t *Table[P]) failLocked(task *Task[P], kind, msg string, wall time.Duration) error {
	rec := record{Kind: "retry", ID: task.ID, Attempt: task.Attempts, ErrKind: kind, Error: msg, WallMS: wall.Milliseconds()}
	if task.Attempts >= t.opt.MaxAttempts {
		rec.Kind = "fail"
	}
	if err := t.appendLocked(rec); err != nil {
		return err
	}
	t.apply(task, rec)
	if t.opt.Failed != nil {
		t.opt.Failed(*task)
	}
	t.tidyLocked()
	return nil
}

// expireLocked fails every lease past its deadline, in admission order,
// burning the attempt. Caller holds t.mu.
func (t *Table[P]) expireLocked() {
	if t.opt.LeaseTTL <= 0 {
		return
	}
	now := obs.Now()
	var expired []*Task[P]
	for task := range t.live {
		if task.State == Running && !now.Before(task.Expiry) {
			expired = append(expired, task)
		}
	}
	sort.Slice(expired, func(i, k int) bool { return expired[i].seq < expired[k].seq })
	for _, task := range expired {
		msg := fmt.Sprintf("lease %s expired (worker %s stopped renewing)", task.Lease, task.Owner)
		if err := t.failLocked(task, KindExpired, msg, 0); err != nil {
			t.opt.Logf("jobs: expiring %s (will retry): %v", task.ID, err)
		}
	}
}

// ShedLowest drops the worst-ranked queued task and journals the drop;
// ok is false when the queue is empty.
func (t *Table[P]) ShedLowest() (task Task[P], ok bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	worst := t.worstLocked()
	if worst == nil {
		return Task[P]{}, false, nil
	}
	rec := record{Kind: "shed", ID: worst.ID}
	if err := t.appendLocked(rec); err != nil {
		return Task[P]{}, false, err
	}
	t.apply(worst, rec)
	t.tidyLocked()
	return *worst, true, nil
}

// Get returns a copy of task id.
func (t *Table[P]) Get(id string) (Task[P], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	if task, ok := t.tasks[id]; ok {
		return *task, true
	}
	return Task[P]{}, false
}

// List returns copies of the retained tasks in admission order.
func (t *Table[P]) List() []Task[P] {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	var out []Task[P]
	for _, task := range t.order {
		out = append(out, *task)
	}
	return out
}

// Reprioritize sets task id's claim priority in memory only: replay
// restores the priority it was accepted with.
func (t *Table[P]) Reprioritize(id string, priority int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if task, ok := t.tasks[id]; ok {
		task.Priority = priority
	}
}

// Queued returns the number of Queued tasks.
func (t *Table[P]) Queued() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queued
}

// Pending returns how many tasks are not terminal, and the earliest time
// one changes on its own: a lease deadline or the end of a backoff (zero
// when there is none).
func (t *Table[P]) Pending() (n int, next time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked()
	for task := range t.live {
		at := task.Expiry
		if task.State == Queued {
			at = task.NotBefore
		}
		if !at.IsZero() && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	return len(t.live), next
}

// Wait blocks until every task is terminal or ctx ends, sweeping lapsed
// leases each tick so progress never waits on other callers.
func (t *Table[P]) Wait(ctx context.Context, tick time.Duration) error {
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		if n, _ := t.Pending(); n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tk.C:
		}
	}
}

// Evict drops from the result index each of keys that no retained task
// references, once remove(key) reports its result gone, and returns how
// many it dropped. remove runs under the table lock, so an Accept of the
// same key never finds a removed result still indexed; it must not call
// the table. When it drops any, it rewrites the journal: replay would
// otherwise restore them from the done records of forgotten tasks.
func (t *Table[P]) Evict(keys []string, remove func(key string) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	pinned := make(map[string]bool, len(t.tasks))
	for _, task := range t.tasks {
		pinned[task.Key] = true
	}
	n := 0
	for _, key := range keys {
		if !pinned[key] && remove(key) {
			delete(t.results, key)
			n++
		}
	}
	if n > 0 {
		if err := t.compactLocked(); err != nil {
			t.opt.Logf("WAL compaction failed (will retry): %v", err)
		}
	}
	return n
}

// Close closes the journal; every acknowledged transition is already
// durable, and journaled operations fail from now on.
func (t *Table[P]) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	//lint:ignore lock-blocking shutdown path: closing under t.mu keeps a racing append off the closed journal
	return t.wal.Close()
}

// tidyLocked applies retention, then compacts once the journal holds
// more than twice what a compaction writes (a meta record, the result
// index and at most two records per task), plus 64 records of slack.
// Unless the live state shrank, a rewrite then follows at least as many
// appends as it writes, so it costs about one record per append however
// many tasks are retained. A failed compaction is logged and retried
// later, since the transition before it is already durable. Caller holds
// t.mu.
func (t *Table[P]) tidyLocked() {
	t.retainLocked()
	if t.records > 2*(1+len(t.results)+2*len(t.tasks))+64 {
		if err := t.compactLocked(); err != nil {
			t.opt.Logf("WAL compaction failed (will retry): %v", err)
		}
	}
}

// retainLocked forgets the oldest terminal tasks past Retain. It walks
// the order only as far as the last of them, and the live tasks it passes
// slide up behind it, so the order stays dense and in admission order.
// Caller holds t.mu.
func (t *Table[P]) retainLocked() {
	drop := t.terminal - t.opt.Retain
	if t.opt.Retain <= 0 || drop <= 0 {
		return
	}
	end := 0
	for n := 0; n < drop; end++ {
		if terminal(t.order[end].State) {
			n++
		}
	}
	keep := end
	for i := end - 1; i >= 0; i-- {
		if task := t.order[i]; terminal(task.State) {
			delete(t.tasks, task.ID)
		} else {
			keep--
			t.order[keep] = task
		}
	}
	clear(t.order[:keep])
	t.order = t.order[keep:]
	t.terminal -= drop
}

// snapshot returns the records that replay task into what its journaled
// records replay it into: the accept, with the priority it was accepted
// with, then one record of its state that also carries what its later
// records set. A local claim is never journaled, so a task running under
// one replays queued, an attempt short, and its owner is not written.
func (t *Table[P]) snapshot(task *Task[P]) ([]record, error) {
	data, err := json.Marshal(task.Data)
	if err != nil {
		return nil, fmt.Errorf("jobs: marshal task data: %w", err)
	}
	recs := []record{{Kind: "accept", ID: task.ID, Priority: task.accepted, Cached: task.Cached, Data: data}}
	next := record{ID: task.ID, Attempt: task.Attempts, WallMS: task.WallMS, ErrKind: task.ErrKind, Error: task.Err}
	if task.Lease != "" { // the last claim was journaled
		next.Owner, next.Lease = task.Owner, task.Lease
	}
	switch task.State {
	case Queued:
		next.Kind = "retry"
	case Running:
		next.Kind = "claim"
		if task.Lease == "" { // a local claim: queued, an attempt short
			next.Kind, next.Attempt = "retry", task.Attempts-1
		}
	case Done:
		next.Kind, next.SHA = "done", task.Result
	case Failed:
		next.Kind = "fail"
	case Shed:
		next.Kind = "shed"
	}
	if next.Kind == "retry" && next.Attempt == 0 && next.WallMS == 0 && next.ErrKind == "" && next.Error == "" {
		return recs, nil // no attempt ended and nothing to carry: the accept says it all
	}
	return append(recs, next), nil
}

// compactLocked atomically replaces the journal with live state: each
// task's snapshot, the result index, and a meta record, which replay into
// the table the old journal replays into. The snapshots' done records
// restore the index entry of each done task's key, so a result record is
// written only for an entry they would miss or leave at another result
// (two done tasks sharing a key), and replay does not verify a done
// task's result twice; the result records follow the snapshots, so the
// index ends as it stands. The meta record comes last so the lease
// counter counts each open lease once. A failed rewrite leaves the old
// journal, which is still correct. Caller holds t.mu.
func (t *Table[P]) compactLocked() error {
	var recs []record
	restored := map[string]string{}
	for _, task := range t.order {
		snap, err := t.snapshot(task)
		if err != nil {
			return err
		}
		recs = append(recs, snap...)
		if task.State == Done && task.Key != "" {
			restored[task.Key] = task.Result
		}
	}
	keys := make([]string, 0, len(t.results))
	for k, sha := range t.results {
		if got, ok := restored[k]; !ok || got != sha {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		recs = append(recs, record{Kind: "result", Key: k, SHA: t.results[k]})
	}
	recs = append(recs, record{Kind: "meta", NextID: t.nextID, Leases: t.leases})
	var buf bytes.Buffer
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err == nil {
			//lint:ignore lock-blocking compaction swaps the journal against a frozen table, so it runs under t.mu; the size rule in tidyLocked amortizes it
			b, err = persist.FrameRecord(b)
		}
		if err != nil {
			return fmt.Errorf("jobs: compact WAL: %w", err)
		}
		buf.Write(b)
	}
	// Every acknowledged append is already synced, and the rename below
	// replaces the file, so a failed close loses nothing.
	_ = t.wal.Close()
	writeErr := persist.WriteFileAtomic(t.path, buf.Bytes(), 0o644)
	wal, _, openErr := persist.OpenJournal(t.path)
	if openErr != nil {
		return fmt.Errorf("jobs: reopen WAL after compaction: %w", openErr)
	}
	t.wal = wal
	if writeErr != nil {
		return fmt.Errorf("jobs: compact WAL: %w", writeErr)
	}
	t.records = len(recs)
	return nil
}

// backoff is how long a task whose attempt n failed waits before it can
// be claimed again: RetryDelay·2^(n−1) capped at 30 s, plus up to half as
// much jitter. The jitter depends only on n and the leases granted so far,
// so replay reproduces it.
func (t *Table[P]) backoff(n int) time.Duration {
	d := t.opt.RetryDelay
	for i := 1; i < n && d < 30*time.Second; i++ {
		d *= 2
	}
	d = min(d, 30*time.Second)
	z := uint64(n)*0x9E3779B97F4A7C15 + uint64(t.leases) + 0x632BE59BD9B4E019 // splitmix64
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return d + time.Duration(float64(z>>11)/float64(1<<53)*float64(d)/2)
}
