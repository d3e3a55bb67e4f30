// Fixture for the wal-order rule: in a journaling function (one that
// calls Journal.Append directly or through a one-hop helper), mutations
// of receiver/param-reachable state before the first append are findings.
// The fixture harness runs the rule with Packages = ["fix/walorder"].
package walorder

import "fix/journal"

type record struct {
	Kind string
}

type store struct {
	wal   *journal.Journal
	seq   int
	jobs  map[string]*entry
	prior []int
}

type entry struct {
	state string
	tries int
}

// accept is clean: the record is journaled before any state changes.
func (s *store) accept(id string) error {
	if err := s.wal.Append([]byte(id)); err != nil {
		return err
	}
	s.seq++
	s.jobs[id] = &entry{state: "queued"}
	return nil
}

// eager mutates the sequence before the append that describes it.
func (s *store) eager(id string) error {
	s.seq++ // want `eager mutates s\.seq before its first WAL append \(line \d+\)`
	if err := s.wal.Append([]byte(id)); err != nil {
		return err
	}
	s.jobs[id] = &entry{state: "queued"}
	return nil
}

// appendRec is a one-hop append helper; callers of it are journaling
// functions too.
func (s *store) appendRec(r record) error {
	return s.wal.Append([]byte(r.Kind))
}

// viaHelper journals through the helper; the early mutation still counts.
func (s *store) viaHelper(id string) error {
	s.jobs[id] = &entry{state: "queued"} // want `viaHelper mutates s\.jobs\[\.\.\.\] before its first WAL append \(line \d+\)`
	return s.appendRec(record{Kind: id})
}

// aliased follows a one-assignment-deep local alias back to the receiver.
func (s *store) aliased(id string) error {
	e := s.jobs[id]
	e.tries++ // want `aliased mutates e\.tries before its first WAL append \(line \d+\)`
	return s.appendRec(record{Kind: id})
}

// commaOK follows the comma-ok form of the same alias.
func (s *store) commaOK(id string) error {
	e, ok := s.jobs[id]
	if !ok {
		return nil
	}
	e.tries++ // want `commaOK mutates e\.tries before its first WAL append \(line \d+\)`
	return s.appendRec(record{Kind: id})
}

// memoryOnly is clean: it never journals, so there is no record to order
// against (scheduling state is deliberately memory-only).
func (s *store) memoryOnly(id string) {
	s.seq++
	delete(s.jobs, id)
}

// localOnly is clean: the slice header is function-local state, not
// receiver-reachable.
func (s *store) localOnly(id string) error {
	tmp := make([]int, 0, 4)
	tmp = append(tmp, len(id))
	_ = tmp
	return s.appendRec(record{Kind: id})
}

// paramMutation mutates a program-typed pointer param before appending.
func (s *store) paramMutation(e *entry, id string) error {
	e.state = "running" // want `paramMutation mutates e\.state before its first WAL append \(line \d+\)`
	return s.appendRec(record{Kind: id})
}

// afterAppend is clean: every mutation follows the journal record.
func (s *store) afterAppend(e *entry, id string) error {
	if err := s.appendRec(record{Kind: id}); err != nil {
		return err
	}
	e.state = "running"
	s.seq++
	return nil
}
