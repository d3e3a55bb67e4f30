package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphio/internal/obs"
	"graphio/internal/persist"
)

// tracer keeps the spans of one traced run in memory; writeFile dumps them
// when the run ends. Spans are opened by the benchmark around its calls
// into each layer, never inside the program. A nil *tracer records
// nothing, which is how the untraced runs share code with the traced ones.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
}

// span is one timed call. Req is the request it served: the input name or
// the daemon's job id. Counts are recorded at the same boundary, e.g. the
// MatVec totals of the probe under an eigensolve. A span's self time is
// its duration minus the union of its children's intervals.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Req    string             `json:"req"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
	tr     *tracer
}

func newTracer() *tracer { return &tracer{epoch: obs.Now()} }

// start opens a span; parent may be nil.
func (t *tracer) start(name, req string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Req: req, Start: int64(obs.Since(t.epoch)), tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	s.ID = len(t.spans)
	t.mu.Unlock()
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = int64(obs.Since(s.tr.epoch))
}

func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.End - s.Start)
}

func (s *span) count(name string, v float64) {
	if s == nil {
		return
	}
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[name] = v
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// writeFile dumps the spans as JSON into dir and returns the file's path.
func (t *tracer) writeFile(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []*span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return p, persist.WriteFileAtomic(p, data, 0o644)
}
