package linalg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestChebPathSmallest(t *testing.T) {
	for _, n := range []int{5, 40, 150} {
		m := pathCSR(n)
		h := 6
		if h > n {
			h = n
		}
		got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), h, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := pathEigenvalues(n)[:h]
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Errorf("n=%d: error %g: got %v want %v", n, d, got, want)
		}
	}
}

func TestChebRecoversMultiplicity(t *testing.T) {
	// Complete graph K_8: eigenvalue 8 with multiplicity 7. The block
	// method must report every copy.
	n := 8
	var tr []Triplet
	for i := 0; i < n; i++ {
		tr = append(tr, Triplet{i, i, float64(n - 1)})
		for j := 0; j < n; j++ {
			if i != j {
				tr = append(tr, Triplet{i, j, -1})
			}
		}
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 8, 8, 8, 8}
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestChebDisconnectedZeros(t *testing.T) {
	// Two disjoint paths: two exact zero eigenvalues.
	n := 10
	var tr []Triplet
	addEdge := func(u, v int) {
		tr = append(tr, Triplet{u, u, 1}, Triplet{v, v, 1}, Triplet{u, v, -1}, Triplet{v, u, -1})
	}
	for i := 0; i < 4; i++ {
		addEdge(i, i+1)
	}
	for i := 5; i < 9; i++ {
		addEdge(i, i+1)
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]) > 1e-8 || math.Abs(got[1]) > 1e-8 {
		t.Errorf("want two zero eigenvalues, got %v", got)
	}
	if got[2] < 1e-3 {
		t.Errorf("third eigenvalue should be positive: %v", got)
	}
}

func TestChebMatchesDenseOnRandomLaplacians(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(60)
		var tr []Triplet
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					w := 0.25 + rng.Float64()
					tr = append(tr, Triplet{u, u, w}, Triplet{v, v, w},
						Triplet{u, v, -w}, Triplet{v, u, -w})
				}
			}
		}
		m, err := NewCSRFromTriplets(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		h := 8
		want, err := SymEigValuesContext(context.Background(), m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), h, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxAbsDiff(got, want[:h]); d > 1e-6 {
			t.Errorf("trial %d (n=%d): error %g\n got %v\nwant %v", trial, n, d, got, want[:h])
		}
	}
}

func TestChebFullSpectrumAndOversizedH(t *testing.T) {
	m := pathCSR(12)
	got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, pathEigenvalues(12)); d > 1e-7 {
		t.Errorf("full spectrum error %g", d)
	}
	got, err = ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("h > n should clamp: len=%d", len(got))
	}
}

// A block as wide as the matrix, over several Gram–Schmidt panels: the
// filtered block is numerically rank deficient, and the later panels must
// still come out orthogonal to the earlier ones.
func TestChebFullBlockAcrossPanels(t *testing.T) {
	m := butterflyCSR(4)
	want, err := SymEigValuesContext(context.Background(), m.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	c := m.GershgorinUpper()
	got, err := ChebFilteredSmallestContext(context.Background(), m, c, m.N, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-8*c {
		t.Errorf("full-block spectrum off by %g", d)
	}
}

// An explicit block no wider than h leaves no Ritz value above position h
// to place the cut in, and a narrower one cannot hold h Ritz pairs; both
// used to index past the end of the block.
func TestChebBlockNoWiderThanH(t *testing.T) {
	m := pathCSR(6)
	want := pathEigenvalues(6)
	for h := 1; h <= 3; h++ {
		got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), h, &ChebOptions{Block: max(h-1, 1)})
		if err == nil && len(got) != h {
			t.Fatalf("h=%d, Block=%d: %d eigenvalues", h, max(h-1, 1), len(got))
		}
		got, err = ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), h, &ChebOptions{Block: h})
		if err != nil {
			var nc *NotConvergedError
			if !errors.As(err, &nc) {
				t.Fatalf("h=%d: %v", h, err)
			}
			continue
		}
		for i := range got {
			if got[i] > want[i]+1e-6 {
				t.Errorf("h=%d: λ%d = %g overestimates %g", h, i, got[i], want[i])
			}
		}
	}
}

func TestChebValidation(t *testing.T) {
	m := pathCSR(4)
	if _, err := ChebFilteredSmallestContext(context.Background(), m, 4, 0, nil); err == nil {
		t.Error("h=0 accepted")
	}
	if out, err := ChebFilteredSmallestContext(context.Background(), emptyOperator{}, 1, 3, nil); err != nil || out != nil {
		t.Error("empty operator should return nil, nil")
	}
}

type emptyOperator struct{}

func (emptyOperator) Dim() int              { return 0 }
func (emptyOperator) MatVec(_, _ []float64) {}

func TestChebSoundPaddingOnSweepExhaustion(t *testing.T) {
	// Force exhaustion with MaxIter=1: the result must be a sound
	// underestimate (each value ≤ the true one) or an explicit error.
	m := pathCSR(60)
	want := pathEigenvalues(60)
	got, err := ChebFilteredSmallestContext(context.Background(), m, m.GershgorinUpper(), 10, &ChebOptions{MaxIter: 1, Degree: 4})
	if err != nil {
		return // explicit failure is acceptable
	}
	for i := range got {
		if got[i] > want[i]+1e-6 {
			t.Fatalf("padded value %d overestimates: %g > %g", i, got[i], want[i])
		}
	}
}

func TestChebAgreesWithLanczosMediumGraph(t *testing.T) {
	// A 2-D torus-ish Laplacian: moderate size, no closed form needed —
	// the two iterative solvers must agree with each other.
	m := torusCSR(18)
	h := 20
	c := m.GershgorinUpper()
	a, err := ChebFilteredSmallestContext(context.Background(), m, c, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SmallestEigsPSDContext(context.Background(), m, c, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(a, b); d > 1e-6 {
		t.Errorf("Chebyshev vs Lanczos differ by %g\n%v\n%v", d, a, b)
	}
}

// torusCSR is the Laplacian of the side×side torus grid.
func torusCSR(side int) *CSR {
	var tr []Triplet
	edge := func(u, v int) {
		tr = append(tr, Triplet{u, u, 1}, Triplet{v, v, 1}, Triplet{u, v, -1}, Triplet{v, u, -1})
	}
	id := func(i, j int) int { return ((i+side)%side)*side + (j+side)%side }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			edge(id(i, j), id(i+1, j))
			edge(id(i, j), id(i, j+1))
		}
	}
	m, err := NewCSRFromTriplets(side*side, tr)
	if err != nil {
		panic(err)
	}
	return m
}

// butterflyCSR is the Laplacian of the l-level FFT butterfly: (l+1)·2^l
// vertices whose spectrum has multiplicities large enough to make a
// narrow Chebyshev block grow.
func butterflyCSR(l int) *CSR {
	w := 1 << l
	var tr []Triplet
	edge := func(u, v int) {
		tr = append(tr, Triplet{u, u, 1}, Triplet{v, v, 1}, Triplet{u, v, -1}, Triplet{v, u, -1})
	}
	for lv := 0; lv < l; lv++ {
		for i := 0; i < w; i++ {
			edge(lv*w+i, (lv+1)*w+i)
			edge(lv*w+i, (lv+1)*w+(i^(1<<lv)))
		}
	}
	m, err := NewCSRFromTriplets((l+1)*w, tr)
	if err != nil {
		panic(err)
	}
	return m
}

// matVecOnly hides every method but the Operator interface, so the solver
// takes its column-by-column MatVec adapter.
type matVecOnly struct{ A Operator }

func (w matVecOnly) Dim() int                  { return w.A.Dim() }
func (w matVecOnly) MatVec(dst, src []float64) { w.A.MatVec(dst, src) }

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// chebCase is one Chebyshev solve of the determinism tests.
type chebCase struct {
	name string
	m    *CSR
	h    int
	opt  *ChebOptions
}

// determinismCases are solves whose eigenvalues must not depend on how the
// operator is wrapped or how many cores run the solve: a torus with two
// Gram–Schmidt panels, and a butterfly whose eigenvalue clusters make a
// deliberately narrow block grow.
func determinismCases() []chebCase {
	return []chebCase{
		{"torus12", torusCSR(12), 20, nil},
		{"butterfly4", butterflyCSR(4), 20, &ChebOptions{Block: 22}},
	}
}

func TestChebDeterminismAcrossOperatorWrappers(t *testing.T) {
	for _, tc := range determinismCases() {
		c := tc.m.GershgorinUpper()
		want, err := ChebFilteredSmallestContext(context.Background(), tc.m, c, tc.h, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, op := range []struct {
			name string
			A    Operator
		}{
			{"matvec-only", matVecOnly{tc.m}},
			{"counting", &CountingOperator{A: tc.m}},
			{"counting(matvec-only)", &CountingOperator{A: matVecOnly{tc.m}}},
		} {
			got, err := ChebFilteredSmallestContext(context.Background(), op.A, c, tc.h, tc.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, op.name, err)
			}
			if !bitsEqual(got, want) {
				t.Errorf("%s: %s eigenvalues differ from the raw CSR's\n got %v\nwant %v", tc.name, op.name, got, want)
			}
		}
	}
}

func TestChebDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range determinismCases() {
		c := tc.m.GershgorinUpper()
		var want []float64
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := ChebFilteredSmallestContext(context.Background(), tc.m, c, tc.h, tc.opt)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", tc.name, procs, err)
			}
			if want == nil {
				want = got
			} else if !bitsEqual(got, want) {
				t.Errorf("%s: GOMAXPROCS=%d eigenvalues differ from GOMAXPROCS=1\n got %v\nwant %v", tc.name, procs, got, want)
			}
		}
	}
}

// CountingOperator counts b column products per block product, whichever
// path serves it.
func TestCountingOperatorCountsBlockColumns(t *testing.T) {
	m := pathCSR(50)
	tm := newTeam()
	defer tm.stop()
	src, dst := make([]float64, 50*7), make([]float64, 50*7)
	for _, inner := range []Operator{m, matVecOnly{m}} {
		cnt := &CountingOperator{A: inner}
		tm.mulBlock(context.Background(), cnt, dst, src, 7, nil)
		cnt.MatVec(dst[:50], src[:50])
		if got := cnt.Count(); got != 8 {
			t.Errorf("%T: Count = %d, want 8 (7 block columns + 1 MatVec)", inner, got)
		}
	}
}
