package core

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
)

// memoCap bounds a Memo's entries, least recently used first out. graphiod
// caps h at 512, so an entry holds at most 4 KB of eigenvalues and a full
// memo stays near 4 MB.
const memoCap = 1024

// Memo remembers solved spectra so that a process solves each (graph,
// Laplacian, h, solver) once. SolveSpectrum consults the Memo its context
// carries (WithMemo): a hit returns a copy of the stored Spectrum, bit for
// bit what a fresh solve returns, without solving. The key is a SHA-256 of
// the graph's adjacency plus every Options field that affects the result;
// M and Processors are not part of it. Solves with Options.WrapOperator set
// bypass the memo, because wrappers keep per-attempt state.
//
// A Memo holds at most 1024 spectra and is safe for concurrent use. Its lock
// covers map access only, never a solve, so two concurrent misses on one
// key may both solve; they produce identical bits. The zero value is an
// empty Memo.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*list.Element
	lru     list.List // of *memoEntry, most recently used first
}

type memoEntry struct {
	key memoKey
	s   *Spectrum
}

// memoKey is every input SolveSpectrum's result depends on, taken after
// withDefaults. A nil solver-options pointer keys as its zero value, which
// withDefaults treats alike.
type memoKey struct {
	graph            [sha256.Size]byte
	kind             laplacian.Kind
	maxK             int
	solver           Solver
	denseCutoff      int
	denseFallbackCap int
	noFallback       bool
	lanczos          linalg.LanczosOptions
	cheb             linalg.ChebOptions
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo { return &Memo{} }

type memoCtxKey struct{}

// WithMemo returns a copy of ctx whose SolveSpectrum calls consult m. A nil
// m detaches any Memo ctx carries, so every solve under it runs, as a
// caller that times its solves needs.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, m)
}

func memoFrom(ctx context.Context) *Memo {
	m, _ := ctx.Value(memoCtxKey{}).(*Memo)
	return m
}

func newMemoKey(g *graph.Graph, opt Options) memoKey {
	k := memoKey{
		graph:            graphDigest(g),
		kind:             opt.Laplacian,
		maxK:             opt.MaxK,
		solver:           opt.Solver,
		denseCutoff:      opt.DenseCutoff,
		denseFallbackCap: opt.DenseFallbackCap,
		noFallback:       opt.NoFallback,
	}
	if opt.Lanczos != nil {
		k.lanczos = *opt.Lanczos
	}
	if opt.Chebyshev != nil {
		k.cheb = *opt.Chebyshev
	}
	return k
}

// graphDigest hashes g's vertex count and each vertex's successor list.
// Graphs keep those lists sorted and deduplicated, so equal digests mean
// the same Laplacian, entry for entry.
func graphDigest(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 4096), uint64(g.N()))
	for v := 0; v < g.N(); v++ {
		succ := g.Succ(v)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(succ)))
		for _, w := range succ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
		if len(buf) >= 3072 {
			_, _ = h.Write(buf) // a hash.Hash never returns an error
			buf = buf[:0]
		}
	}
	_, _ = h.Write(buf)
	return [sha256.Size]byte(h.Sum(nil))
}

// get returns a copy of the spectrum stored under k.
func (m *Memo) get(k memoKey) (*Spectrum, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(e)
	return cloneSpectrum(e.Value.(*memoEntry).s), true
}

// put stores a copy of s under k, evicting the least recently used entry
// past memoCap. A key already stored keeps its spectrum: a concurrent miss
// solved the same bits.
func (m *Memo) put(k memoKey, s *Spectrum) {
	c := cloneSpectrum(s)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[k]; ok {
		m.lru.MoveToFront(e)
		return
	}
	if m.entries == nil {
		m.entries = map[memoKey]*list.Element{}
	}
	m.entries[k] = m.lru.PushFront(&memoEntry{key: k, s: c})
	if m.lru.Len() > memoCap {
		last := m.lru.Back()
		m.lru.Remove(last)
		delete(m.entries, last.Value.(*memoEntry).key)
	}
}

// cloneSpectrum copies s deeply enough that edits to the copy's slices
// cannot reach s.
func cloneSpectrum(s *Spectrum) *Spectrum {
	c := *s
	c.Eigenvalues = slices.Clone(s.Eigenvalues)
	c.Fallbacks = slices.Clone(s.Fallbacks)
	return &c
}
