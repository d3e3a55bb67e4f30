package jobs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// The table keeps counts, a live set and an admission order so that no
// request scans the retained tasks. The model below keeps only a list of
// tasks in admission order and answers every question by scanning all of
// it, under the rules the table documents. Random operation sequences
// drive both, and after every step the two must agree.

var errRefused = errors.New("refused by admit")

// mTask is one task as the model holds it.
type mTask struct {
	ID, Key           string
	Priority, seq     int
	accepted          int // the priority it was accepted with
	State             string
	Attempts          int
	Owner, Lease      string
	Expiry, NotBefore time.Time
	Result, ErrKind   string
	WallMS            int64
	Cached            bool
}

func fromTask(task Task[item]) mTask {
	return mTask{
		ID: task.ID, Key: task.Key, Priority: task.Priority, State: task.State, Attempts: task.Attempts,
		Owner: task.Owner, Lease: task.Lease, Expiry: task.Expiry, NotBefore: task.NotBefore,
		Result: task.Result, ErrKind: task.ErrKind, WallMS: task.WallMS, Cached: task.Cached,
	}
}

func (x mTask) String() string {
	at := func(v time.Time) string {
		if v.IsZero() {
			return "-"
		}
		return strconv.FormatInt(v.UnixMilli()%1e6, 10)
	}
	return fmt.Sprintf("%s{key %s prio %d %s attempts %d owner %q lease %q expiry %s notBefore %s result %q err %q wall %d cached %v}",
		x.ID, x.Key, x.Priority, x.State, x.Attempts, x.Owner, x.Lease, at(x.Expiry), at(x.NotBefore), x.Result, x.ErrKind, x.WallMS, x.Cached)
}

// reopen turns x into what replay restores, whether or not the journal
// was compacted, but for the lease deadline and the end of the backoff,
// which replay re-arms from the clock and reopen clears. Reprioritize is
// memory-only, so x takes back the priority it was accepted with. A local
// claim is never journaled: its owner is lost, and a task running under
// it comes back queued, an attempt short.
func (x *mTask) reopen(leased bool) {
	x.Priority = x.accepted
	if !leased {
		x.Owner = ""
		if x.State == Running {
			x.State = Queued
			x.Attempts--
		}
	}
	x.Expiry, x.NotBefore = time.Time{}, time.Time{}
}

// durable renders what replay promises to restore of x.
func (x mTask) durable(leased bool) string {
	x.reopen(leased)
	return x.String()
}

type model struct {
	ttl         time.Duration
	maxAttempts int
	retain      int
	tasks       []*mTask // retained, in admission order
	results     map[string]string
	seq         int
	nextID      int
	leases      int
	hooked      []Task[item] // the Failed hook's reports, in order
}

func (m *model) find(id string) *mTask {
	for _, x := range m.tasks {
		if x.ID == id {
			return x
		}
	}
	return nil
}

func (m *model) liveIDs() []string {
	var ids []string
	for _, x := range m.tasks {
		if !terminal(x.State) {
			ids = append(ids, x.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// ranks reports whether a is claimed before b.
func ranks(a, b *mTask) bool {
	return a.Priority > b.Priority || a.Priority == b.Priority && a.seq < b.seq
}

func (m *model) best(now time.Time) *mTask {
	var pick *mTask
	for _, x := range m.tasks {
		if x.State == Queued && !now.Before(x.NotBefore) && (pick == nil || ranks(x, pick)) {
			pick = x
		}
	}
	return pick
}

func (m *model) worst() *mTask {
	var pick *mTask
	for _, x := range m.tasks {
		if x.State == Queued && (pick == nil || ranks(pick, x)) {
			pick = x
		}
	}
	return pick
}

func (m *model) queued() (n int) {
	for _, x := range m.tasks {
		if x.State == Queued {
			n++
		}
	}
	return n
}

// pending is Pending's answer: the live tasks, and the earliest lease
// deadline or end of backoff among them.
func (m *model) pending() (n int, next time.Time) {
	for _, x := range m.tasks {
		if terminal(x.State) {
			continue
		}
		n++
		at := x.Expiry
		if x.State == Queued {
			at = x.NotBefore
		}
		if !at.IsZero() && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	return n, next
}

// retainTerminal forgets the oldest terminal tasks past retain.
func (m *model) retainTerminal() {
	var term []*mTask
	for _, x := range m.tasks {
		if terminal(x.State) {
			term = append(term, x)
		}
	}
	if m.retain > 0 && len(term) > m.retain {
		drop := term[:len(term)-m.retain]
		m.tasks = slices.DeleteFunc(m.tasks, func(x *mTask) bool { return slices.Contains(drop, x) })
	}
}

func (m *model) accept(id string, prio int, key string, refuse bool) (*mTask, []string, error) {
	if id == "" {
		id = fmt.Sprintf("j%06d", m.nextID)
	}
	result, hit := m.results[key]
	var saw []string
	if !hit {
		saw = m.liveIDs()
		if refuse {
			return nil, saw, errRefused
		}
	}
	m.tasks = slices.DeleteFunc(m.tasks, func(x *mTask) bool { return x.ID == id })
	task := &mTask{ID: id, Key: key, Priority: prio, accepted: prio, seq: m.seq, State: Queued, Cached: hit}
	m.seq++
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= m.nextID {
		m.nextID = n + 1
	}
	m.tasks = append(m.tasks, task)
	if hit {
		m.done(task, result, 0)
	}
	m.retainTerminal()
	return task, saw, nil
}

func (m *model) done(x *mTask, result string, wallMS int64) {
	x.State, x.Result, x.ErrKind, x.WallMS = Done, result, "", wallMS
	m.results[x.Key] = result
}

func (m *model) claim(x *mTask, owner string, now time.Time) {
	x.State, x.Owner, x.Lease = Running, owner, ""
	x.Attempts++
	if m.ttl > 0 {
		m.leases++
		x.Lease = fmt.Sprintf("L%06d", m.leases)
		x.Expiry = now.Add(m.ttl)
	}
}

// failAttempt ends x's current attempt. The Failed hook must have heard
// of it next, which pins the order of failures and so of their journal
// records. The backoff's jitter comes from the table's own arithmetic,
// so the model reads the end of the backoff from what the hook heard.
func (m *model) failAttempt(x *mTask, kind string, wallMS int64) error {
	if len(m.hooked) == 0 || m.hooked[0].ID != x.ID {
		return fmt.Errorf("the Failed hook heard %v next, want %s", m.hooked, x.ID)
	}
	heard := m.hooked[0]
	m.hooked = m.hooked[1:]
	x.ErrKind, x.WallMS = kind, wallMS
	if x.Attempts >= m.maxAttempts {
		x.State = Failed
	} else {
		x.State, x.NotBefore = Queued, heard.NotBefore
	}
	if heard.State != x.State {
		return fmt.Errorf("the Failed hook saw %s %s, want %s", x.ID, heard.State, x.State)
	}
	m.retainTerminal()
	return nil
}

// expire fails every lapsed lease, in admission order.
func (m *model) expire(now time.Time) error {
	if m.ttl <= 0 {
		return nil
	}
	var lapsed []*mTask
	for _, x := range m.tasks {
		if x.State == Running && !now.Before(x.Expiry) {
			lapsed = append(lapsed, x)
		}
	}
	for _, x := range lapsed {
		if err := m.failAttempt(x, KindExpired, 0); err != nil {
			return err
		}
	}
	return nil
}

// opReader hands out the bytes that drive a run, then zeros.
type opReader struct{ data []byte }

func (r *opReader) more() bool { return len(r.data) > 0 }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// noSync skips fsync: the model runs journal thousands of records and
// never crash, so durability is not what they check.
type noSync struct{ persist.File }

func (noSync) Sync() error { return nil }

// runModel drives a table and the model through the operations data
// encodes and fails t at the first step where they disagree. The first
// byte picks the configuration: Retain 1–4, local claims (graphiod's
// shape) or leases (dist's), and 1–3 attempts per task.
func runModel(t *testing.T, data []byte) {
	in := &opReader{data: data}
	cfg := in.byte()
	m := &model{retain: 1 + int(cfg%4), maxAttempts: 1 + int(cfg/8%3), results: map[string]string{}}
	opt := Options[item]{Retain: m.retain, MaxAttempts: m.maxAttempts, RetryDelay: time.Second}
	if cfg&4 != 0 {
		m.ttl = 10 * time.Second
		opt.LeaseTTL = m.ttl
	}
	opt.Failed = func(task Task[item]) { m.hooked = append(m.hooked, task) }
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	obs.SetClock(func() time.Time { return now })
	persist.WrapFile = func(f persist.File) persist.File { return noSync{f} }
	t.Cleanup(func() {
		obs.SetClock(nil)
		persist.WrapFile = nil
	})
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	tab := openTable(t, path, opt)
	defer func() { _ = tab.Close() }()

	var steps []string
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("config Retain %d MaxAttempts %d LeaseTTL %v; after %s:\n"+format,
			append([]any{opt.Retain, opt.MaxAttempts, opt.LeaseTTL, strings.Join(steps, "; ")}, args...)...)
	}
	// pickID names a retained task, or now and then one the table does
	// not hold.
	pickID := func() string {
		b := int(in.byte())
		if b%(len(m.tasks)+1) == len(m.tasks) {
			return "gone"
		}
		return m.tasks[b%(len(m.tasks)+1)].ID
	}
	// pickLease is id's current lease, or now and then a stale one.
	pickLease := func(id string) string {
		if x := m.find(id); x != nil && in.byte()%4 != 0 {
			return x.Lease
		}
		return "L999999"
	}
	for len(steps) < 400 && in.more() {
		switch op := in.byte() % 13; op {
		case 0, 1, 2:
			key := fmt.Sprintf("k%d", in.byte()%6)
			prio := int(in.byte() % 3)
			id := ""
			if in.byte()%5 == 0 {
				// A caller's own ID, never one used before: replay
				// applies retention only at its end, so it cannot tell
				// that a reused ID's first task was forgotten first.
				id = fmt.Sprintf("x%d", m.seq)
			}
			refuse := in.byte()%4 == 0
			steps = append(steps, fmt.Sprintf("Accept(%q, %d, %s, refuse %v)", id, prio, key, refuse))
			var saw []string
			got, err := tab.Accept(id, prio, item{Name: key}, func(live []Task[item]) error {
				for _, task := range live {
					saw = append(saw, task.ID)
				}
				if refuse {
					return errRefused
				}
				return nil
			})
			sort.Strings(saw)
			want, wantSaw, wantErr := m.accept(id, prio, key, refuse)
			if !errors.Is(err, wantErr) {
				fatalf("Accept error %v, want %v", err, wantErr)
			}
			if strings.Join(saw, " ") != strings.Join(wantSaw, " ") {
				fatalf("admit saw live %v, want %v", saw, wantSaw)
			}
			if want != nil && fromTask(got).String() != want.String() {
				fatalf("Accept = %v, want %v", fromTask(got), want)
			}
		case 3:
			owner := fmt.Sprintf("w%d", in.byte()%2)
			steps = append(steps, "Claim("+owner+")")
			got, ok, err := tab.Claim(owner)
			if err != nil {
				fatalf("Claim: %v", err)
			}
			if err := m.expire(now); err != nil {
				fatalf("%v", err)
			}
			want := m.best(now)
			if ok != (want != nil) {
				fatalf("Claim ok = %v, want %v", ok, want != nil)
			}
			if want != nil {
				m.claim(want, owner, now)
				if fromTask(got).String() != want.String() {
					fatalf("Claim = %v, want %v", fromTask(got), want)
				}
			}
		case 4:
			id, result, wallMS := pickID(), fmt.Sprintf("r%d", in.byte()%3), int64(in.byte()%3)
			steps = append(steps, fmt.Sprintf("Complete(%s, %s, %dms)", id, result, wallMS))
			err := tab.Complete(id, result, time.Duration(wallMS)*time.Millisecond, nil)
			x := m.find(id)
			if (err != nil) != (x == nil) {
				fatalf("Complete error %v for a task the model holds: %v", err, x != nil)
			}
			if x != nil && x.State != Done {
				m.done(x, result, wallMS)
				m.retainTerminal()
			}
		case 5:
			id := pickID()
			lease := pickLease(id)
			wallMS := int64(in.byte() % 3)
			steps = append(steps, fmt.Sprintf("Fail(%s, %s, %dms)", id, lease, wallMS))
			got, err := tab.Fail(id, lease, "bad", "boom", time.Duration(wallMS)*time.Millisecond)
			if err != nil {
				fatalf("Fail: %v", err)
			}
			if err := m.expire(now); err != nil {
				fatalf("%v", err)
			}
			want := mTask{}
			if x := m.find(id); x != nil {
				if x.State == Running && x.Lease == lease {
					if err := m.failAttempt(x, "bad", wallMS); err != nil {
						fatalf("%v", err)
					}
				}
				want = *x
			}
			if fromTask(got).String() != want.String() {
				fatalf("Fail = %v, want %v", fromTask(got), want)
			}
		case 6:
			steps = append(steps, "ShedLowest()")
			got, ok, err := tab.ShedLowest()
			if err != nil {
				fatalf("ShedLowest: %v", err)
			}
			want := m.worst()
			if ok != (want != nil) {
				fatalf("ShedLowest ok = %v, want %v", ok, want != nil)
			}
			if want != nil {
				want.State = Shed
				if fromTask(got).String() != want.String() {
					fatalf("ShedLowest = %v, want %v", fromTask(got), want)
				}
				m.retainTerminal()
			}
		case 7:
			id, prio := pickID(), int(in.byte()%3)
			steps = append(steps, fmt.Sprintf("Reprioritize(%s, %d)", id, prio))
			tab.Reprioritize(id, prio)
			if x := m.find(id); x != nil {
				x.Priority = prio
			}
		case 8:
			id := pickID()
			lease := pickLease(id)
			steps = append(steps, fmt.Sprintf("Renew(%s, %s)", id, lease))
			ok := tab.Renew(id, lease)
			if err := m.expire(now); err != nil {
				fatalf("%v", err)
			}
			x := m.find(id)
			want := x != nil && x.State == Running && x.Lease == lease
			if want {
				x.Expiry = now.Add(m.ttl)
			}
			if ok != want {
				fatalf("Renew = %v, want %v", ok, want)
			}
		case 9:
			d := time.Duration(in.byte()%8) * 1500 * time.Millisecond
			steps = append(steps, fmt.Sprintf("advance %v", d))
			now = now.Add(d)
		case 10:
			keep, gone := in.byte(), in.byte()
			var keys []string
			for k := 0; k < 6; k++ {
				if keep>>k&1 != 0 {
					keys = append(keys, fmt.Sprintf("k%d", k))
				}
			}
			steps = append(steps, fmt.Sprintf("Evict(%v)", keys))
			removes := func(key string) bool { return gone>>(key[1]-'0')&1 != 0 }
			var removed []string
			n := tab.Evict(keys, func(key string) bool {
				removed = append(removed, key)
				return removes(key)
			})
			var wantRemoved []string
			wantN := 0
			for _, key := range keys {
				if slices.ContainsFunc(m.tasks, func(x *mTask) bool { return x.Key == key }) {
					continue
				}
				wantRemoved = append(wantRemoved, key)
				if removes(key) {
					delete(m.results, key)
					wantN++
				}
			}
			if n != wantN || !slices.Equal(removed, wantRemoved) {
				fatalf("Evict = %d after removing %v, want %d after %v", n, removed, wantN, wantRemoved)
			}
		case 11:
			steps = append(steps, "reopen")
			if err := tab.Close(); err != nil {
				fatalf("Close: %v", err)
			}
			tab = openTable(t, path, opt)
			got := tab.List()
			var gotLines, wantLines []string
			for _, task := range got {
				x := fromTask(task)
				x.Expiry, x.NotBefore = time.Time{}, time.Time{}
				gotLines = append(gotLines, x.String())
			}
			for _, x := range m.tasks {
				wantLines = append(wantLines, x.durable(m.ttl > 0))
			}
			if !slices.Equal(gotLines, wantLines) {
				fatalf("reopened table holds\n  %s\nwant\n  %s", strings.Join(gotLines, "\n  "), strings.Join(wantLines, "\n  "))
			}
			tab.mu.Lock()
			nextID, leases := tab.nextID, tab.leases
			tab.mu.Unlock()
			if nextID != m.nextID || leases != m.leases {
				fatalf("reopened counters: next ID %d, leases %d; want %d, %d", nextID, leases, m.nextID, m.leases)
			}
			for i, task := range got {
				x := m.tasks[i]
				x.reopen(m.ttl > 0)
				x.Expiry, x.NotBefore = task.Expiry, task.NotBefore
			}
			checkCompactedCopy(t, tab, path, opt, fatalf)
		case 12:
			steps = append(steps, "compact")
			tab.mu.Lock()
			err := tab.compactLocked()
			tab.mu.Unlock()
			if err != nil {
				fatalf("compact: %v", err)
			}
		}
		checkModel(t, tab, m, now, fatalf)
	}
}

// checkCompactedCopy fails unless a copy of the journal at path, opened,
// compacted and reopened, holds the table tab has just replayed from
// path: every task field but the lease deadline and the end of the
// backoff, which replay re-arms from the clock, the admission order, the
// result index and the ID and lease counters. It then reopens both
// journals with a Verify that refuses every result, as after every
// artifact vanished, and compares them again.
func checkCompactedCopy(t *testing.T, tab *Table[item], path string, opt Options[item], fatalf func(string, ...any)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	dir := filepath.Dir(path)
	cp, orig := filepath.Join(dir, "copy.jsonl"), filepath.Join(dir, "orig.jsonl")
	for _, p := range []string{cp, orig} {
		if err := persist.WriteFileAtomic(p, raw, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	opt.Failed = nil // the copy's replay fails no attempt, so this would not be heard anyway
	c := openTable(t, cp, opt)
	c.mu.Lock()
	err = c.compactLocked()
	c.mu.Unlock()
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("compacting the copy: %v", err)
	}
	c = openTable(t, cp, opt)
	got, want := replayed(c, nil), replayed(tab, nil)
	if err := c.Close(); err != nil {
		fatalf("%v", err)
	}
	if got != want {
		fatalf("a compacted copy of the journal replays into\n%swant\n%s", got, want)
	}

	// Each done task comes back queued, keeping its attempts. The journal
	// also holds the tasks retention forgot, and a done task that comes
	// back queued no longer takes a retention slot, so some of them come
	// back from it alone: only the tasks the compacted copy holds compare.
	opt.Verify = func(string, string) bool { return false }
	c = openTable(t, cp, opt)
	defer func() { _ = c.Close() }()
	u := openTable(t, orig, opt)
	defer func() { _ = u.Close() }()
	held := map[string]bool{}
	for _, task := range c.order {
		held[task.ID] = true
	}
	if got, want := replayed(c, held), replayed(u, held); got != want {
		fatalf("with every result refused, a compacted copy of the journal replays into\n%swant\n%s", got, want)
	}
}

// replayed renders what replay restores of tab; a non-nil ids limits the
// tasks to those it holds.
func replayed(tab *Table[item], ids map[string]bool) string {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "  next ID %d, leases %d, results %v\n", tab.nextID, tab.leases, tab.results)
	for _, task := range tab.order {
		if ids != nil && !ids[task.ID] {
			continue
		}
		x := *task
		x.Expiry, x.NotBefore, x.seq = time.Time{}, time.Time{}, 0
		fmt.Fprintf(&b, "  %+v\n", x)
	}
	return b.String()
}

// checkModel compares the table's bookkeeping with a full scan of its
// tasks, then every query with the model's answer.
func checkModel(t *testing.T, tab *Table[item], m *model, now time.Time, fatalf func(string, ...any)) {
	t.Helper()
	list := tab.List() // sweeps lapsed leases first
	if err := m.expire(now); err != nil {
		fatalf("%v", err)
	}

	tab.mu.Lock()
	queued, term, live := 0, 0, 0
	for _, task := range tab.tasks {
		_, inLive := tab.live[task]
		switch {
		case terminal(task.State):
			term++
		case task.State == Queued:
			queued++
		}
		if !terminal(task.State) {
			live++
		}
		if inLive == terminal(task.State) {
			tab.mu.Unlock()
			fatalf("task %s is %s, but in the live set: %v", task.ID, task.State, inLive)
		}
	}
	ordered := len(tab.order) == len(tab.tasks)
	for i, task := range tab.order {
		ordered = ordered && tab.tasks[task.ID] == task && (i == 0 || tab.order[i-1].seq < task.seq)
	}
	counts := fmt.Sprintf("queued %d terminal %d live %d", tab.queued, tab.terminal, len(tab.live))
	scanned := fmt.Sprintf("queued %d terminal %d live %d", queued, term, live)
	var best, worst string
	if pick := tab.bestLocked(now); pick != nil {
		best = pick.ID
	}
	if pick := tab.worstLocked(); pick != nil {
		worst = pick.ID
	}
	results := fmt.Sprint(tab.results)
	tab.mu.Unlock()
	if counts != scanned {
		fatalf("bookkeeping %s, a scan of the tasks gives %s", counts, scanned)
	}
	if !ordered {
		fatalf("the admission order is not the tasks sorted by admission")
	}

	var gotLines, wantLines []string
	for _, task := range list {
		gotLines = append(gotLines, fromTask(task).String())
	}
	for _, x := range m.tasks {
		wantLines = append(wantLines, x.String())
	}
	if !slices.Equal(gotLines, wantLines) {
		fatalf("List =\n  %s\nwant\n  %s", strings.Join(gotLines, "\n  "), strings.Join(wantLines, "\n  "))
	}
	if results != fmt.Sprint(m.results) {
		fatalf("result index %s, want %s", results, fmt.Sprint(m.results))
	}
	if got, want := tab.Queued(), m.queued(); got != want {
		fatalf("Queued = %d, want %d", got, want)
	}
	n, next := tab.Pending()
	if wantN, wantNext := m.pending(); n != wantN || !next.Equal(wantNext) {
		fatalf("Pending = %d, %v; want %d, %v", n, next, wantN, wantNext)
	}
	var wantBest, wantWorst string
	if pick := m.best(now); pick != nil {
		wantBest = pick.ID
	}
	if pick := m.worst(); pick != nil {
		wantWorst = pick.ID
	}
	if best != wantBest || worst != wantWorst {
		fatalf("next claim %q and shed %q, want %q and %q", best, worst, wantBest, wantWorst)
	}
	if len(m.hooked) != 0 {
		fatalf("the Failed hook heard of failures the model did not make: %v", m.hooked)
	}
}

// TestTableMatchesModel runs random operation sequences through the
// table and its full-scan model, in both the local and the leased shape.
func TestTableMatchesModel(t *testing.T) {
	for seed := 0; seed < 48; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 1000)
		rng.Read(data)
		data[0] = byte(seed) // every configuration, in turn
		t.Run(strconv.Itoa(seed), func(t *testing.T) { runModel(t, data) })
		if t.Failed() {
			return
		}
	}
}

// FuzzTableMatchesModel drives the same comparison from fuzzed bytes.
func FuzzTableMatchesModel(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 300)
		rng.Read(data)
		data[0] = byte(seed * 5)
		f.Add(data)
	}
	f.Fuzz(runModel)
}
