package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// item is the task data the tests journal; Name doubles as the result key.
type item struct {
	Name string `json:"name"`
}

func openTable(t *testing.T, path string, opt Options[item]) *Table[item] {
	t.Helper()
	if opt.Key == nil {
		opt.Key = func(_ string, d item) string { return d.Name }
	}
	opt.Logf = t.Logf
	tab, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// The WAL and the table must stay proportional to live state, not to
// every task ever accepted: terminal tasks past the retention cap are
// pruned, the journal compacts once it holds twice the live state plus 64
// records, and a compacted journal still replays the result index and
// never reissues a pruned task's ID.
func TestWALCompactionBoundsJournalAndJobTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	tab := openTable(t, path, Options[item]{Retain: 4})
	var lastID string
	for i := 0; i < 200; i++ {
		task, err := tab.Accept("", 0, item{Name: "k"}, nil)
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		lastID = task.ID
		if task.Cached {
			continue
		}
		if got, ok, err := tab.Claim("w"); err != nil || !ok || got.ID != task.ID {
			t.Fatalf("accept %d: claim = %+v, %v, %v", i, got, ok, err)
		}
		if err := tab.Complete(task.ID, "sha-k", time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tab.List()); n > 4 {
		t.Fatalf("table holds %d terminal tasks, want ≤ Retain (4)", n)
	}
	recs, err := persist.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Live state is ≤10 records (meta + 1 result + ≤4 tasks × 2); anything
	// near the 400 appends means compaction never ran.
	if len(recs) > 2*10+64 {
		t.Fatalf("WAL holds %d records after 200 tasks, want ≤ 2×live+64 (84)", len(recs))
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the compacted journal must replay the index (an accept is an
	// immediate hit) and the meta record must keep IDs monotonic even
	// though every prior row was pruned.
	tab = openTable(t, path, Options[item]{Retain: 4})
	defer tab.Close()
	task, err := tab.Accept("", 0, item{Name: "k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !task.Cached || task.Result != "sha-k" {
		t.Fatalf("accept after reopen = %+v, want a cache hit on sha-k", task)
	}
	if task.ID <= lastID {
		t.Fatalf("task ID %s reissued at or below pruned ID %s; meta record lost the counter", task.ID, lastID)
	}
}

// Leases, retries and terminal failures survive a restart, both from the
// raw journal and from a compacted one: an open lease comes back under
// its ID with a fresh TTL, a retried task keeps its attempt count, and
// lease IDs are never reissued.
func TestReplayRestoresLeasesRetriesAndFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dist.json")
	opt := Options[item]{LeaseTTL: time.Hour, MaxAttempts: 2, RetryDelay: time.Minute}
	tab := openTable(t, path, opt)
	for prio, name := range []string{"b", "c", "a"} {
		if _, err := tab.Accept(name, prio, item{Name: name}, nil); err != nil {
			t.Fatal(err)
		}
	}
	claim := func(want string) Task[item] {
		t.Helper()
		task, ok, err := tab.Claim("w1")
		if err != nil || !ok || task.ID != want {
			t.Fatalf("claim = %+v, %v, %v; want %s", task, ok, err, want)
		}
		return task
	}
	fail := func(task Task[item], msg string) Task[item] {
		t.Helper()
		got, err := tab.Fail(task.ID, task.Lease, "", msg, 0)
		if err != nil || got.Err != msg {
			t.Fatalf("fail %s = %+v, %v", task.ID, got, err)
		}
		return got
	}
	// skipBackoffs moves the clock past every retry backoff, well inside
	// the lease TTL.
	skew := time.Duration(0)
	skipBackoffs := func() {
		skew += 2 * time.Minute
		offset := skew
		obs.SetClock(func() time.Time { return time.Now().Add(offset) })
	}
	t.Cleanup(func() { obs.SetClock(nil) })

	a := claim("a")
	c := fail(claim("c"), "bad")
	fail(claim("b"), "boom")
	skipBackoffs()
	if c = fail(claim("c"), "bad again"); c.State != Failed || c.Attempts != 2 {
		t.Fatalf("c after its last attempt = %+v, want failed on attempt 2", c)
	}
	check := func(tab *Table[item]) {
		t.Helper()
		got := map[string]Task[item]{}
		for _, task := range tab.List() {
			got[task.ID] = task
		}
		if ga := got["a"]; ga.State != Running || ga.Lease != a.Lease || ga.Owner != "w1" || time.Until(ga.Expiry) < 30*time.Minute {
			t.Errorf("a = %+v, want running under %s with a fresh TTL", ga, a.Lease)
		}
		if gb := got["b"]; gb.State != Queued || gb.Attempts != 1 || gb.Err != "boom" {
			t.Errorf("b = %+v, want queued after 1 attempt", gb)
		}
		if gc := got["c"]; gc.State != Failed || gc.Attempts != 2 || gc.Err != "bad again" {
			t.Errorf("c = %+v, want failed after 2 attempts", gc)
		}
		if !tab.Renew("a", a.Lease) {
			t.Error("restored lease does not renew")
		}
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	tab = openTable(t, path, opt)
	check(tab)
	tab.mu.Lock()
	err := tab.compactLocked()
	tab.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	tab = openTable(t, path, opt)
	defer tab.Close()
	check(tab)
	skipBackoffs()
	if b2 := claim("b"); b2.Attempts != 2 || b2.Lease <= c.Lease {
		t.Fatalf("post-replay claim = %+v, want attempt 2 under a lease ID after %s", b2, c.Lease)
	}
}

// A record that does not belong to this package, such as one from an
// older journal format, must be refused naming the file.
func TestForeignRecordRefusedNamingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dist.json")
	j, _, err := persist.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte(`{"kind":"grant","shard":"a","worker":"w1","lease":"L000001","attempt":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, Options[item]{Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `unknown kind "grant"`) {
		t.Fatalf("Open on a foreign record = %v, want a refusal naming %s", err, path)
	}
}

// Accepting an ID the table already holds replaces that task, as replay
// of a journal holding two accepts of one ID does; the replaced task
// leaves the queue, the live set and the order with it.
func TestAcceptOfAHeldIDReplacesTheTask(t *testing.T) {
	tab := openTable(t, filepath.Join(t.TempDir(), "jobs.jsonl"), Options[item]{})
	defer tab.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := tab.Accept(name, 0, item{Name: name}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := tab.Claim("w"); err != nil || !ok {
		t.Fatalf("claim = %v, %v", ok, err)
	}
	if _, err := tab.Accept("a", 0, item{Name: "a2"}, nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, task := range tab.List() {
		got = append(got, task.ID+":"+task.Key+":"+task.State)
	}
	n, _ := tab.Pending()
	if strings.Join(got, " ") != "b:b:queued a:a2:queued" || n != 2 || tab.Queued() != 2 {
		t.Fatalf("table holds %v with %d pending and %d queued, want b then the new a, both queued", got, n, tab.Queued())
	}
}

// Evict drops only unpinned keys, and only once remove succeeds.
func TestEvictSkipsPinnedKeysAndFailedRemovals(t *testing.T) {
	tab := openTable(t, filepath.Join(t.TempDir(), "jobs.jsonl"), Options[item]{Retain: 1})
	defer tab.Close()
	for _, name := range []string{"gone", "stuck", "pinned"} {
		task, err := tab.Accept("", 0, item{Name: name}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Claim("w"); err != nil {
			t.Fatal(err)
		}
		if err := tab.Complete(task.ID, "sha-"+name, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	var removed []string
	n := tab.Evict([]string{"gone", "stuck", "pinned"}, func(key string) bool {
		removed = append(removed, key)
		return key != "stuck"
	})
	if n != 1 || strings.Join(removed, ",") != "gone,stuck" {
		t.Fatalf("Evict = %d after removing %v, want 1 after gone,stuck (pinned is a retained row)", n, removed)
	}
	for name, wantHit := range map[string]bool{"gone": false, "stuck": true, "pinned": true} {
		if task, err := tab.Accept("", 0, item{Name: name}, nil); err != nil || task.Cached != wantHit {
			t.Errorf("accept %s = %+v, %v; want cached %v", name, task, err, wantHit)
		}
	}
}

// An eviction survives a restart: the forgotten task whose result it
// dropped neither restores the entry nor comes back queued once Verify
// finds its result gone.
func TestEvictionSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	gone := map[string]bool{}
	opt := Options[item]{Retain: 1, Verify: func(key, _ string) bool { return !gone[key] }}
	tab := openTable(t, path, opt)
	for _, name := range []string{"a", "b"} {
		if _, err := tab.Accept(name, 0, item{Name: name}, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Claim("w"); err != nil {
			t.Fatal(err)
		}
		if err := tab.Complete(name, "sha-"+name, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := tab.Evict([]string{"a"}, func(key string) bool { gone[key] = true; return true }); n != 1 {
		t.Fatalf("Evict = %d, want 1", n)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	tab = openTable(t, path, opt)
	defer tab.Close()
	var got []string
	for _, task := range tab.List() {
		got = append(got, task.ID+":"+task.State)
	}
	if strings.Join(got, " ") != "b:done" {
		t.Fatalf("reopened table holds %v, want only b:done", got)
	}
	if task, err := tab.Accept("", 0, item{Name: "a"}, nil); err != nil || task.Cached {
		t.Fatalf("accept of the evicted key = %+v, %v; want a fresh task", task, err)
	}
}

// A reopen verifies each result once, compacted or not: the done records
// restore the index, so compaction writes no result record beside them,
// and a cache hit's row shares its result with the row it hit. With the
// results gone, each done task comes back queued with the attempts, owner
// and wall time its records carry, compacted or not.
func TestReopenVerifiesEachResultOnce(t *testing.T) {
	for _, compact := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "dist.json")
		opt := Options[item]{LeaseTTL: time.Minute}
		tab := openTable(t, path, opt)
		for _, name := range []string{"a", "b"} {
			if _, err := tab.Accept(name, 0, item{Name: name}, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := tab.Claim("w"); err != nil {
				t.Fatal(err)
			}
			if err := tab.Complete(name, "sha-"+name, 5*time.Millisecond, nil); err != nil {
				t.Fatal(err)
			}
		}
		if hit, err := tab.Accept("", 0, item{Name: "a"}, nil); err != nil || !hit.Cached {
			t.Fatalf("accept of a done key = %+v, %v; want a cache hit", hit, err)
		}
		if compact {
			tab.mu.Lock()
			err := tab.compactLocked()
			tab.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
		calls := 0
		opt.Verify = func(string, string) bool { calls++; return true }
		tab = openTable(t, path, opt)
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
		if calls != 2 {
			t.Errorf("compacted %v: reopen made %d Verify calls for 3 done tasks holding 2 results, want 2", compact, calls)
		}
		opt.Verify = func(string, string) bool { return false }
		tab = openTable(t, path, opt)
		for _, task := range tab.List() {
			attempts, owner, wall := 1, "w", int64(5)
			if task.Cached { // never claimed
				attempts, owner, wall = 0, "", 0
			}
			if task.State != Queued || task.Attempts != attempts || task.Owner != owner || task.WallMS != wall {
				t.Errorf("compacted %v: %s with its result gone reopens %s, attempts %d, owner %q, wall %d ms; want queued, %d, %q, %d",
					compact, task.ID, task.State, task.Attempts, task.Owner, task.WallMS, attempts, owner, wall)
			}
		}
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A task a reopen re-queued because Verify refused its result stays
// queued through the next reopen, although the journal held its done
// record and later completions would have pushed that record out of
// retention.
func TestRequeueSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	gone := map[string]bool{}
	opt := Options[item]{Retain: 2, Verify: func(key, _ string) bool { return !gone[key] }}
	tab := openTable(t, path, opt)
	defer func() { _ = tab.Close() }()
	complete := func(name string) {
		t.Helper()
		if _, err := tab.Accept(name, 0, item{Name: name}, nil); err != nil {
			t.Fatal(err)
		}
		if err := tab.Complete(name, "sha-"+name, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(want string) {
		t.Helper()
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
		tab = openTable(t, path, opt)
		var got []string
		for _, task := range tab.List() {
			got = append(got, task.ID+":"+task.State)
		}
		if strings.Join(got, " ") != want {
			t.Fatalf("reopened table holds %v, want %s", got, want)
		}
	}
	complete("a")
	complete("b")
	gone["a"] = true
	reopen("a:queued b:done")
	complete("c")
	reopen("a:queued b:done c:done")
}

// TestTableConcurrentLeases races claims, renewals, expiry sweeps,
// completions and failures on one leased table. Every task must end in
// exactly one terminal state that replay reproduces, no task may run
// past its attempt cap, a completion that lands after its lease lapsed
// must still win, and no task may be seen failed before the Failed hook
// has heard of it.
func TestTableConcurrentLeases(t *testing.T) {
	const tasks, workers, maxAttempts = 24, 6, 3
	ttl := 20 * time.Millisecond
	path := filepath.Join(t.TempDir(), "dist.json")
	var expiries atomic.Int64
	var hookMu sync.Mutex
	reported := map[string]bool{} // tasks the hook saw fail for good
	opt := Options[item]{
		LeaseTTL: ttl, MaxAttempts: maxAttempts, RetryDelay: time.Millisecond,
		Failed: func(task Task[item]) {
			if task.ErrKind == KindExpired {
				expiries.Add(1)
			}
			if task.State == Failed {
				hookMu.Lock()
				reported[task.ID] = true
				hookMu.Unlock()
			}
		},
	}
	tab := openTable(t, path, opt)
	checkReported := func(when string) {
		t.Helper()
		for _, task := range tab.List() {
			hookMu.Lock()
			ok := reported[task.ID]
			hookMu.Unlock()
			if task.State == Failed && !ok {
				t.Errorf("%s: %s is failed but the Failed hook has not heard of it", when, task.ID)
			}
		}
	}
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("t%02d", i)
		if _, err := tab.Accept(name, i%3, item{Name: name}, nil); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	lateWins := map[string]bool{} // tasks completed after their lease lapsed
	var claims atomic.Int64       // picks each claim's fate, so every fate occurs
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := fmt.Sprintf("w%d", w)
			for {
				task, ok, err := tab.Claim(owner)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					if pending, _ := tab.Pending(); pending == 0 {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				if task.Attempts > maxAttempts {
					t.Errorf("%s claimed on attempt %d, over the cap %d", task.ID, task.Attempts, maxAttempts)
				}
				switch claims.Add(1) % 4 {
				case 0: // renew, then finish
					tab.Renew(task.ID, task.Lease)
					if err := tab.Complete(task.ID, "ok", 0, nil); err != nil {
						t.Error(err)
					}
				case 1: // report a failure
					if _, err := tab.Fail(task.ID, task.Lease, "", "boom", 0); err != nil {
						t.Error(err)
					}
				case 2: // stall past the lease, then upload anyway
					time.Sleep(2 * ttl)
					if tab.Renew(task.ID, task.Lease) {
						t.Errorf("%s: a lapsed lease %s renewed", task.ID, task.Lease)
					}
					if err := tab.Complete(task.ID, "late", 0, nil); err != nil {
						t.Error(err)
					}
					mu.Lock()
					lateWins[task.ID] = true
					mu.Unlock()
				case 3: // abandon silently: the lease lapses on its own
				}
			}
		}(w)
	}
	// Sweep concurrently with the workers, as the coordinator's Wait does.
	if err := tab.Wait(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	checkReported("after Wait")
	wg.Wait()
	checkReported("at the end")

	final := tab.List()
	if len(final) != tasks {
		t.Fatalf("table holds %d tasks, want %d", len(final), tasks)
	}
	var failed int64
	for _, task := range final {
		if task.State != Done && task.State != Failed {
			t.Errorf("%s ended %s, want done or failed", task.ID, task.State)
		}
		if task.Attempts < 1 || task.Attempts > maxAttempts {
			t.Errorf("%s used %d attempts, want 1..%d", task.ID, task.Attempts, maxAttempts)
		}
		if lateWins[task.ID] && task.State != Done {
			t.Errorf("%s: a completion after its lease lapsed did not win (state %s)", task.ID, task.State)
		}
		if task.State == Failed {
			failed++
		}
	}
	if expiries.Load() == 0 || len(lateWins) == 0 {
		t.Errorf("race never exercised expiry (%d expiries, %d late wins)", expiries.Load(), len(lateWins))
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := openTable(t, path, opt)
	defer replayed.Close()
	for i, task := range replayed.List() {
		if want := final[i]; task.ID != want.ID || task.State != want.State || task.Attempts != want.Attempts {
			t.Errorf("replay: %s %s after %d attempts, want %s %s after %d", task.ID, task.State, task.Attempts, want.ID, want.State, want.Attempts)
		}
	}
}

// cutOnce cuts one write in half and fails it: the n-th counted across
// every file it wraps, so a reopened journal does not restart the count.
// Every other write passes through, like a disk that fills and frees.
type cutOnce struct {
	persist.File
	n *int
}

func (w cutOnce) Write(p []byte) (int, error) {
	if *w.n--; *w.n != 0 {
		return w.File.Write(p)
	}
	n, _ := w.File.Write(p[:len(p)/2])
	return n, errors.New("injected short write")
}

// A failed append refuses the journal until it is reopened, so the table
// must rewrite it from memory, dropping the torn frame: the transition
// that failed is lost, and the next one lands without a restart.
func TestFailedAppendRecoversWithoutRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	cut := 2 // b's accept
	persist.WrapFile = func(f persist.File) persist.File { return cutOnce{File: f, n: &cut} }
	t.Cleanup(func() { persist.WrapFile = nil })
	tab := openTable(t, path, Options[item]{})
	if _, err := tab.Accept("a", 0, item{Name: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Accept("b", 0, item{Name: "b"}, nil); err == nil {
		t.Fatal("the cut accept reported success")
	}
	if _, err := tab.Accept("c", 0, item{Name: "c"}, nil); err != nil {
		t.Fatalf("accept after a failed one: %v", err)
	}
	if err := tab.Complete("a", "sha-a", 0, nil); err != nil {
		t.Fatalf("complete after a failed append: %v", err)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	persist.WrapFile = nil
	tab = openTable(t, path, Options[item]{})
	defer tab.Close()
	var got []string
	for _, task := range tab.List() {
		got = append(got, task.ID+":"+task.State)
	}
	if want := "a:done c:queued"; strings.Join(got, " ") != want {
		t.Fatalf("replayed %v, want %s", got, want)
	}
}

// countSyncs counts the fsyncs of every file it wraps.
type countSyncs struct {
	persist.File
	n *int
}

func (f countSyncs) Sync() error {
	*f.n++
	return f.File.Sync()
}

// A cache hit journals its accept and done records in one append, with
// one fsync. A crash that cuts that write leaves the accept without its
// done at worst, so the reopened table holds the job queued, to be run
// again, or not at all; never done without a done record.
func TestTornCachedAcceptReplaysQueued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	syncs := 0
	persist.WrapFile = func(f persist.File) persist.File { return countSyncs{File: f, n: &syncs} }
	t.Cleanup(func() { persist.WrapFile = nil })
	tab := openTable(t, path, Options[item]{})
	if _, err := tab.Accept("a", 0, item{Name: "k"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tab.Complete("a", "sha-k", 0, nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	syncs = 0
	if task, err := tab.Accept("b", 0, item{Name: "k"}, nil); err != nil || !task.Cached {
		t.Fatalf("accept of a known key = %+v, %v; want a cache hit", task, err)
	}
	if syncs != 1 {
		t.Fatalf("a cache hit took %d fsyncs, want 1", syncs)
	}
	persist.WrapFile = nil
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	accept := bytes.IndexByte(full[len(before):], '\n') + 1 + len(before) // end of b's accept frame
	for cut := len(before); cut <= len(full); cut++ {
		want := "a:done"
		switch {
		case cut == len(full):
			want = "a:done b:done"
		case cut >= accept:
			want = "a:done b:queued"
		}
		if err := persist.WriteFileAtomic(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tab := openTable(t, path, Options[item]{})
		var got []string
		for _, task := range tab.List() {
			got = append(got, task.ID+":"+task.State)
		}
		queued := tab.Queued()
		if err := tab.Close(); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, " ") != want || queued != strings.Count(want, "queued") {
			t.Fatalf("cut at byte %d of %d: replayed %v with %d queued, want %s", cut, len(full), got, queued, want)
		}
	}
}

// BenchmarkAcceptCached times a cache hit against a table holding n done
// tasks, with retention at n, so every hit also forgets the oldest task.
// Its cost should not grow with n: the journal is rewritten once it holds
// twice what a rewrite writes, so a rewrite of the n tasks (3n records)
// follows at least 1.5n hits. At -benchtime 40000x every size includes at
// least one rewrite; at 16k retained the first comes after about 32.8k
// hits.
func BenchmarkAcceptCached(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("retained=%d", n), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "jobs.jsonl")
			opt := Options[item]{Key: func(_ string, d item) string { return d.Name }, Retain: n, Logf: b.Logf}
			// Fill without fsync, then reopen on the real file. The fill
			// never grows the journal past the size that triggers a rewrite.
			persist.WrapFile = func(f persist.File) persist.File { return noSync{f} }
			tab, err := Open(path, opt)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%d", i)
				if _, err := tab.Accept("", 0, item{Name: key}, nil); err != nil {
					b.Fatal(err)
				}
				if err := tab.Complete(fmt.Sprintf("j%06d", i), "sha-"+key, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			persist.WrapFile = nil
			if err := tab.Close(); err != nil {
				b.Fatal(err)
			}
			if tab, err = Open(path, opt); err != nil {
				b.Fatal(err)
			}
			defer tab.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tab.Accept("", 0, item{Name: fmt.Sprintf("k%d", i%n)}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
