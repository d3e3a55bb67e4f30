// Package expansion computes edge-expansion (isoperimetric) quantities for
// computation graphs. The spectral I/O method descends from edge-expansion
// arguments — Ballard et al. bound Strassen's I/O through the expansion of
// its computation graph (paper §2, §4.1) — and Cheeger's inequality ties
// expansion to the same λ2 the spectral bound uses with k = 2:
//
//	λ2/2  ≤  h(G)  ≤  sqrt(2·dmax·λ2)
//
// with h(G) = min_{|S| ≤ n/2} |∂S|/|S| over the undirected support. The
// package provides the exact h(G) by enumeration for tiny graphs, the
// Cheeger interval from a computed λ2, and the classic Fiedler sweep cut
// as a practical upper bound — quantifying, in the experiment tables, how
// much the k-eigenvalue machinery gains over expansion alone.
package expansion

import (
	"context"
	"errors"
	"math"

	"graphio/internal/graph"
	"graphio/internal/laplacian"
	"graphio/internal/linalg"
	"graphio/internal/partition"
)

// Exact computes h(G) = min over nonempty S with |S| ≤ n/2 of |∂S|/|S| by
// subset enumeration on the undirected support; limited to 22 vertices.
// Returns an error for empty or oversized graphs.
func Exact(g *graph.Graph) (float64, error) {
	n := g.N()
	if n == 0 {
		return 0, errors.New("expansion: empty graph")
	}
	if n > 22 {
		return 0, errors.New("expansion: exact enumeration limited to 22 vertices")
	}
	best := math.Inf(1)
	for mask := 1; mask < 1<<n; mask++ {
		size := popcount(uint32(mask))
		if 2*size > n {
			continue
		}
		boundary := 0
		for u := 0; u < n; u++ {
			inS := mask&(1<<u) != 0
			for _, v := range g.Succ(u) {
				if inS != (mask&(1<<v) != 0) {
					boundary++
				}
			}
		}
		if h := float64(boundary) / float64(size); h < best {
			best = h
		}
	}
	return best, nil
}

func popcount(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// CheegerInterval returns the Cheeger bounds [λ2/2, sqrt(2·dmax·λ2)]
// enclosing h(G), from the algebraic connectivity λ2 of the unweighted
// Laplacian and the maximum undirected degree.
func CheegerInterval(lambda2 float64, dmax int) (lo, hi float64) {
	if lambda2 < 0 {
		lambda2 = 0
	}
	return lambda2 / 2, math.Sqrt(2 * float64(dmax) * lambda2)
}

// Lambda2 computes the algebraic connectivity of g's undirected support.
// ctx carries the solver's telemetry scope and cancels the Chebyshev solve
// that graphs past 512 vertices take.
func Lambda2(ctx context.Context, g *graph.Graph) (float64, error) {
	L, err := laplacian.BuildCSR(g, laplacian.Original)
	if err != nil {
		return 0, err
	}
	if g.N() <= 512 {
		vals, err := linalg.SymEigValuesContext(ctx, L.ToDense())
		if err != nil {
			return 0, err
		}
		if len(vals) < 2 {
			return 0, errors.New("expansion: graph too small for λ2")
		}
		return vals[1], nil
	}
	vals, err := linalg.ChebFilteredSmallestContext(ctx, L, L.GershgorinUpper(), 2, nil)
	if err != nil {
		return 0, err
	}
	return vals[1], nil
}

// SweepCut orders vertices by their Fiedler-vector entry and returns the
// best expansion |∂S|/|S| over all prefixes with |S| ≤ n/2 — the classic
// spectral-partitioning sweep, an upper bound on h(G) that Cheeger's proof
// guarantees is within sqrt(2·dmax·λ2).
func SweepCut(g *graph.Graph) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, errors.New("expansion: graph too small for a sweep cut")
	}
	L, err := laplacian.BuildCSR(g, laplacian.Original)
	if err != nil {
		return 0, err
	}
	f := partition.FiedlerVector(L, 2000, 1e-8, 1)
	if f == nil {
		return 0, errors.New("expansion: no Fiedler vector (edgeless graph?)")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort by Fiedler entry (simple insertion; sweep sizes are modest).
	for i := 1; i < n; i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && f[idx[j]] > f[v] {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
	inS := make([]bool, n)
	boundary := 0
	best := math.Inf(1)
	for i := 0; i < n/2; i++ {
		v := idx[i]
		inS[v] = true
		// Adding v flips the crossing status of each incident edge.
		for _, w := range g.Succ(v) {
			if inS[w] {
				boundary--
			} else {
				boundary++
			}
		}
		for _, w := range g.Pred(v) {
			if inS[w] {
				boundary--
			} else {
				boundary++
			}
		}
		if h := float64(boundary) / float64(i+1); h < best {
			best = h
		}
	}
	return best, nil
}
