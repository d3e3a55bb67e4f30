package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"path"

	"graphio/internal/laplacian"
)

// refFS holds the references recorded by `perfbench record`: the smallest
// Laplacian eigenvalues of every fixed input (spectra.json) and the sweep's
// CSV tables for the default and held-out seeds (sweep/seed-<n>/).
//
//go:embed refs
var refFS embed.FS

// spectrum is the reference for one (graph, Laplacian kind): its smallest
// eigenvalues plus the provenance of the one-time cross-check.
type spectrum struct {
	Key       string `json:"key"`
	N         int    `json:"n"`
	MaxOutDeg int    `json:"max_out_deg"`
	// Solver produced Values through core.SpectralBoundContext at the
	// recorded commit; Check is the independent solver it was compared
	// with, CheckDiff the largest absolute eigenvalue difference.
	Solver      string  `json:"solver"`
	Check       string  `json:"check"`
	CheckDiff   float64 `json:"check_diff"`
	CheckFailed string  `json:"check_failed,omitempty"`
	// ClosedForm names the Theorem 7 spectrum (butterfly, hypercube) the
	// values were also compared with, where the kind has one.
	ClosedForm     string    `json:"closed_form,omitempty"`
	ClosedFormDiff float64   `json:"closed_form_diff,omitempty"`
	Values         []float64 `json:"values"`
}

type spectraFile struct {
	Commit  string     `json:"commit"`
	MaxK    int        `json:"max_k"`
	Spectra []spectrum `json:"spectra"`
}

// refSet indexes the reference spectra by key.
type refSet map[string]*spectrum

func kindName(k laplacian.Kind) string {
	if k == laplacian.Original {
		return "original"
	}
	return "normalized"
}

func specKey(name string, k laplacian.Kind) string { return name + "/" + kindName(k) }

// loadRefs parses the embedded reference spectra.
func loadRefs() (refSet, error) {
	data, err := refFS.ReadFile("refs/spectra.json")
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	var f spectraFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse references: %w", err)
	}
	rs := refSet{}
	for i := range f.Spectra {
		rs[f.Spectra[i].Key] = &f.Spectra[i]
	}
	return rs, nil
}

// sweepRefs holds the parsed reference tables per seed and file name.
type sweepRefs map[int64]map[string][][]string

// loadSweepRefs parses the embedded reference tables of both seeds.
func loadSweepRefs() (sweepRefs, error) {
	out := sweepRefs{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		dir := fmt.Sprintf("refs/sweep/seed-%d", seed)
		ents, err := fs.ReadDir(refFS, dir)
		if err != nil {
			return nil, fmt.Errorf("read sweep references: %w", err)
		}
		tables := map[string][][]string{}
		for _, e := range ents {
			data, err := refFS.ReadFile(path.Join(dir, e.Name()))
			if err != nil {
				return nil, err
			}
			if tables[e.Name()], err = readCSV(data); err != nil {
				return nil, fmt.Errorf("sweep reference %s: %w", e.Name(), err)
			}
		}
		out[seed] = tables
	}
	return out, nil
}

// theoremBound is the benchmark's own Theorem 4/5 arithmetic, independent
// of core: max(0, max_{k≤h} ⌊n/k⌋·Σ_{i≤k}λ_i/divisor − 2kM), with round-off
// negatives clamped to zero as for any PSD spectrum.
func theoremBound(vals []float64, h, n, m int, divisor float64) float64 {
	best, s := 0.0, 0.0
	for i := 0; i < h && i < len(vals); i++ {
		s += math.Max(vals[i], 0)
		k := i + 1
		best = math.Max(best, float64(n/k)*s/divisor-2*float64(k)*float64(m))
	}
	return best
}

// maxPositiveM is the largest fast-memory size whose bound is still
// positive: M < max_k ⌊n/k⌋·Σλ/(2k). It is at least 1.
func maxPositiveM(vals []float64, h, n int) int {
	x, s := 0.0, 0.0
	for i := 0; i < h && i < len(vals); i++ {
		s += math.Max(vals[i], 0)
		k := i + 1
		x = math.Max(x, float64(n/k)*s/float64(2*k))
	}
	return max(1, int(math.Ceil(x))-1)
}

// closeTo is the gate's comparison: 1e-6 relative with an absolute floor
// of 1e-6. Solvers agree with the references to about 1e-10.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(math.Abs(want), 1)
}

// checkBound compares a computed bound with the one the reference
// spectrum gives for (h, M) under the method's divisor.
func checkBound(what string, got float64, ref *spectrum, h, m int, original bool) string {
	div := 1.0
	if original {
		div = float64(max(ref.MaxOutDeg, 1))
	}
	want := theoremBound(ref.Values, min(h, ref.N), ref.N, m, div)
	if math.IsNaN(got) || !closeTo(got, want) {
		return fmt.Sprintf("%s: bound %.10g, reference %s gives %.10g", what, got, ref.Key, want)
	}
	return ""
}

// nonEmpty drops the empty strings check helpers return on success.
func nonEmpty(ss ...string) []string {
	var out []string
	for _, s := range ss {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}
