package lint

// lock-blocking: no may-block call while a sync.Mutex/RWMutex is held.
// Blocking under a lock turns one slow fsync or network stall into a
// convoy: every other goroutine that needs the mutex queues behind it —
// the bug class once chased by hand in graphiod's job queue.
//
// Held regions are tracked positionally inside each function: a Lock()
// opens a region, the matching Unlock() closes it, `defer Unlock()` holds
// to the end of the function. Two extensions make the check
// interprocedural:
//
//   - the repo's *Locked naming convention: a function whose name ends in
//     "Locked" is analyzed as if its caller's mutex were held, and calls
//     TO *Locked functions are not re-reported in the caller (the finding
//     belongs inside the callee, next to the blocking call);
//   - callee summaries: a call blocks if anything it transitively reaches
//     blocks — channel ops, net/net/http, persist writes, sync waits,
//     time.Sleep. Plain lock acquisition is not a blocking class; holding
//     one lock while taking a DIFFERENT one is only reported through the
//     deadlock path when the callee re-acquires a mutex already held.
//
// Acquiring a mutex the function already holds (directly or through a
// callee summary) is reported as a deadlock, not merely a block.
//
// Per (function, mutex) only the first blocking site is reported, with a
// count of the rest: the fix is almost always structural (move the work
// out of the critical section), so one finding per lock is the actionable
// unit. The persist package itself is exempt: a durability layer's whole
// point is writing under its own lock.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockBlocking is the lock-blocking rule.
type LockBlocking struct {
	// Exempt packages are skipped entirely (subtrees included).
	Exempt []string
}

// NewLockBlocking returns the rule with the default exemptions.
func NewLockBlocking() *LockBlocking {
	return &LockBlocking{Exempt: []string{DefaultPersistPath}}
}

// Name implements Rule.
func (r *LockBlocking) Name() string { return "lock-blocking" }

// Doc implements Rule.
func (r *LockBlocking) Doc() string {
	return "no may-block call (channel ops, net, persist writes, sync waits, time.Sleep) while a mutex is held"
}

// callerHeldKey is the pseudo-mutex a *Locked function runs under.
const callerHeldKey = "caller's lock"

// Check implements Rule.
func (r *LockBlocking) Check(p *Package, report Reporter) {
	if p.Prog == nil || pathExempt(p.Path, r.Exempt) {
		return
	}
	for _, n := range p.Prog.NodesOf(p) {
		body := n.Body()
		if body == nil || isTestPos(p, body.Pos()) {
			continue
		}
		r.checkFunc(p, n, report)
	}
}

type lockEvent struct {
	pos     token.Pos
	key     string
	acquire bool
	display string // source-ish text of the mutex expr for messages
}

type blockSite struct {
	pos     token.Pos
	detail  string
	lock    string    // display of the held mutex
	lockPos token.Pos // where it was locked
}

func (r *LockBlocking) checkFunc(p *Package, n *FuncNode, report Reporter) {
	pr := p.Prog
	events, lockCalls := collectLockEvents(p, n)

	// held maps mutex key -> (lock position, display); deferHeld entries
	// never close.
	type heldLock struct {
		pos     token.Pos
		display string
	}
	held := make(map[string]heldLock)
	if n.Decl != nil && strings.HasSuffix(n.Decl.Name.Name, "Locked") {
		held[callerHeldKey] = heldLock{pos: n.Decl.Pos(), display: callerHeldKey}
	}

	// findings groups blocking sites per mutex key.
	findings := make(map[string][]blockSite)
	record := func(pos token.Pos, detail string) {
		for key, h := range held {
			findings[key] = append(findings[key], blockSite{pos: pos, detail: detail, lock: h.display, lockPos: h.pos})
		}
	}

	// Merge lock events and blocking sites into one position-ordered
	// stream, then replay it.
	type step struct {
		pos   token.Pos
		event *lockEvent
		block *blockSite
		edge  *CallEdge
	}
	var steps []step
	for i := range events {
		steps = append(steps, step{pos: events[i].pos, event: &events[i]})
	}
	for i := range n.Summary.BlockOps {
		op := n.Summary.BlockOps[i]
		steps = append(steps, step{pos: op.Pos, block: &blockSite{pos: op.Pos, detail: op.Reason}})
	}
	for _, e := range n.Edges {
		// Lock/Unlock calls are the events themselves, not blocking work.
		if e.Kind == EdgeGo || e.Call == nil || lockCalls[e.Call] {
			continue
		}
		steps = append(steps, step{pos: e.Pos, edge: e})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].pos < steps[j].pos })

	for _, st := range steps {
		switch {
		case st.event != nil:
			ev := st.event
			if ev.acquire {
				if len(held) > 0 {
					// Acquiring while already holding: deadlock if it is the
					// same mutex, lock-order risk (a block) otherwise.
					if h, same := held[ev.key]; same && !strings.HasPrefix(ev.key, "local:") {
						report(ev.pos, "%s locks %s while already holding it (locked at line %d): guaranteed self-deadlock",
							n.Name(), ev.display, p.Fset.Position(h.pos).Line)
					} else {
						record(ev.pos, "acquires "+ev.display)
					}
				}
				held[ev.key] = heldLock{pos: ev.pos, display: ev.display}
			} else {
				delete(held, ev.key)
			}
		case st.block != nil:
			record(st.block.pos, st.block.detail)
		case st.edge != nil:
			e := st.edge
			if len(held) == 0 {
				continue
			}
			// Deadlock through a callee that re-acquires a held mutex.
			for _, t := range edgeTargets(e) {
				for key := range t.Summary.Acquires {
					if h, same := held[key]; same {
						report(e.Pos, "%s calls %s which re-acquires %s already held (locked at line %d): guaranteed deadlock",
							n.Name(), t.Name(), h.display, p.Fset.Position(h.pos).Line)
					}
				}
			}
			if calleeIsLockedConvention(e) {
				continue // the finding lives inside the *Locked callee
			}
			if reason, via, ok := pr.EdgeBlocks(e); ok {
				record(e.Pos, fmt.Sprintf("calls %s (%s)", via, reason))
			}
		}
	}

	// Report the first site per mutex, with a count of the rest.
	keys := make([]string, 0, len(findings))
	for k := range findings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sites := findings[key]
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		first := sites[0]
		more := ""
		if len(sites) > 1 {
			more = fmt.Sprintf(" (+%d more blocking site(s) under this lock)", len(sites)-1)
		}
		if key == callerHeldKey {
			report(first.pos, "%s runs under its caller's lock (the *Locked convention) but may block: %s%s",
				n.Name(), first.detail, more)
		} else {
			report(first.pos, "%s may block while holding %s (locked at line %d): %s%s",
				n.Name(), first.lock, p.Fset.Position(first.lockPos).Line, first.detail, more)
		}
	}
}

// edgeTargets returns the program nodes an edge may reach.
func edgeTargets(e *CallEdge) []*FuncNode {
	if e.Callee != nil {
		return []*FuncNode{e.Callee}
	}
	return e.Iface
}

// calleeIsLockedConvention reports whether the edge's callee follows the
// *Locked naming convention (so it owns its own finding).
func calleeIsLockedConvention(e *CallEdge) bool {
	if e.Callee != nil && e.Callee.Decl != nil {
		return strings.HasSuffix(e.Callee.Decl.Name.Name, "Locked")
	}
	if e.Fn != nil {
		return strings.HasSuffix(e.Fn.Name(), "Locked")
	}
	return false
}

// collectLockEvents finds the Lock/RLock/Unlock/RUnlock calls in n's own
// body, in source order, plus the set of all lock-management call exprs so
// the caller can exclude them from blocking-call analysis. A deferred
// Unlock is dropped from the event stream (the lock is held to the end of
// the function); a deferred Lock would be nonsense and is ignored too.
func collectLockEvents(p *Package, n *FuncNode) ([]lockEvent, map[*ast.CallExpr]bool) {
	var events []lockEvent
	lockCalls := make(map[*ast.CallExpr]bool)
	deferred := make(map[*ast.CallExpr]bool)
	ownNodes(n, func(x ast.Node) bool {
		if d, ok := x.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	ownNodes(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := selectedFunc(p, sel)
		if fn == nil {
			return true
		}
		var acquire bool
		switch syncMethod(fn) {
		case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock":
			acquire = true
		case "Mutex.Unlock", "RWMutex.Unlock", "RWMutex.RUnlock":
			acquire = false
		default:
			return true
		}
		lockCalls[call] = true
		if deferred[call] {
			return true
		}
		key := mutexKey(p, sel.X)
		if key == "" {
			return true
		}
		events = append(events, lockEvent{
			pos:     call.Pos(),
			key:     key,
			acquire: acquire,
			display: exprText(sel.X) + mutexSuffix(fn.Name()),
		})
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events, lockCalls
}

func mutexSuffix(method string) string {
	if method == "RLock" || method == "RUnlock" {
		return " (read)"
	}
	return ""
}

// exprText renders a selector chain for messages: s.mu, srv.store.mu.
func exprText(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	}
	return "mutex"
}
