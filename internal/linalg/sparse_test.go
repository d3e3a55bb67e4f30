package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func pathCSR(n int) *CSR {
	var tr []Triplet
	for i := 0; i < n-1; i++ {
		tr = append(tr,
			Triplet{i, i, 1}, Triplet{i + 1, i + 1, 1},
			Triplet{i, i + 1, -1}, Triplet{i + 1, i, -1})
	}
	m, err := NewCSRFromTriplets(n, tr)
	if err != nil {
		panic(err)
	}
	return m
}

func TestCSRFromTripletsMergesDuplicates(t *testing.T) {
	m, err := NewCSRFromTriplets(2, []Triplet{{0, 0, 1}, {0, 0, 2}, {1, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ=%d want 2", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(1, 0) != -1 || m.At(0, 1) != 0 {
		t.Errorf("entries: %g %g %g", m.At(0, 0), m.At(1, 0), m.At(0, 1))
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	if _, err := NewCSRFromTriplets(2, []Triplet{{0, 2, 1}}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := NewCSRFromTriplets(2, []Triplet{{-1, 0, 1}}); err == nil {
		t.Error("negative row accepted")
	}
}

func TestCSRMatVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		var tr []Triplet
		for k := 0; k < rng.Intn(4*n); k++ {
			tr = append(tr, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		m, err := NewCSRFromTriplets(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		d := m.ToDense()
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		m.MatVec(got, src)
		d.MatVec(want, src)
		if dd := maxAbsDiff(got, want); dd > 1e-12 {
			t.Errorf("trial %d: sparse vs dense matvec differ by %g", trial, dd)
		}
	}
}

func TestGershgorinBoundsSpectrum(t *testing.T) {
	for _, n := range []int{2, 5, 20} {
		m := pathCSR(n)
		c := m.GershgorinUpper()
		vals, err := SymEigValues(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		if vals[n-1] > c+1e-12 {
			t.Errorf("n=%d: λmax=%g exceeds Gershgorin bound %g", n, vals[n-1], c)
		}
	}
}

func TestShiftedNeg(t *testing.T) {
	m := pathCSR(3)
	s := &ShiftedNeg{A: m, C: 5}
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	s.MatVec(dst, src)
	want := make([]float64, 3)
	m.MatVec(want, src)
	for i := range want {
		want[i] = 5*src[i] - want[i]
	}
	if maxAbsDiff(dst, want) > 1e-14 {
		t.Errorf("ShiftedNeg: got %v want %v", dst, want)
	}
}

func TestLanczosPathSmallest(t *testing.T) {
	for _, n := range []int{5, 40, 150} {
		m := pathCSR(n)
		h := 6
		if h > n {
			h = n
		}
		got, err := SmallestEigsPSD(m, m.GershgorinUpper(), h, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := pathEigenvalues(n)[:h]
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Errorf("n=%d: Lanczos error %g: got %v want %v", n, d, got, want)
		}
	}
}

func TestLanczosRecoversMultiplicity(t *testing.T) {
	// K_8: eigenvalues 0, then 8 with multiplicity 7. Plain Lanczos finds
	// one copy; deflation must recover all requested copies.
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
	got, err := SmallestEigsPSD(m, m.GershgorinUpper(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 8, 8, 8, 8}
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("complete-graph eigenvalues: got %v, want %v", got, want)
	}
}

func TestLanczosDisconnectedZeros(t *testing.T) {
	// Two disjoint paths: the Laplacian has a two-dimensional kernel.
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
	got, err := SmallestEigsPSD(m, m.GershgorinUpper(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]) > 1e-8 || math.Abs(got[1]) > 1e-8 {
		t.Errorf("disconnected graph should have two zero eigenvalues, got %v", got)
	}
	if got[2] < 1e-3 {
		t.Errorf("third eigenvalue should be positive, got %v", got)
	}
}

func TestLanczosFullSpectrumSmallMatrix(t *testing.T) {
	// h = n: Lanczos must return the entire spectrum.
	n := 12
	m := pathCSR(n)
	got, err := SmallestEigsPSD(m, m.GershgorinUpper(), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, pathEigenvalues(n)); d > 1e-7 {
		t.Errorf("full spectrum error %g", d)
	}
}

func TestLanczosHLargerThanN(t *testing.T) {
	m := pathCSR(4)
	got, err := SmallestEigsPSD(m, m.GershgorinUpper(), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len=%d want 4", len(got))
	}
}

func TestLanczosMatchesDenseOnRandomLaplacians(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
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
		want, err := SymEigValues(m.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		got, err := SmallestEigsPSD(m, m.GershgorinUpper(), h, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := maxAbsDiff(got, want[:h]); d > 1e-6 {
			t.Errorf("trial %d (n=%d): Lanczos vs dense error %g\n got %v\nwant %v",
				trial, n, d, got, want[:h])
		}
	}
}

func TestSolverErrorsOnBadH(t *testing.T) {
	m := pathCSR(3)
	if _, err := SmallestEigsPSD(m, 4, 0, nil); err == nil {
		t.Error("Lanczos accepted h=0")
	}
}

// The block product, serial or split across a team with a fused finish,
// is bitwise MatVec column by column, and the finish sees every row
// exactly once, through the block path and the MatVec adapter alike.
func TestCSRMulBlockMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tm := newTeam()
	defer tm.stop()
	for trial := 0; trial < 20; trial++ {
		n, b := 1+rng.Intn(300), 1+rng.Intn(40)
		var tr []Triplet
		for k := rng.Intn(5 * n); k > 0; k-- {
			tr = append(tr, Triplet{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		m, err := NewCSRFromTriplets(n, tr)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, n*b)
		for i := range src {
			src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
		serial, split, adapted := make([]float64, n*b), make([]float64, n*b), make([]float64, n*b)
		m.MulBlock(serial, src, b)
		seen := make([]int, n)
		count := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		}
		m.mulBlock(context.Background(), tm, split, src, b, count)
		tm.mulBlock(context.Background(), matVecOnly{m}, adapted, src, b, count)
		x, y := make([]float64, n), make([]float64, n)
		for j := 0; j < b; j++ {
			for i := range x {
				x[i] = src[i*b+j]
			}
			m.MatVec(y, x)
			for i, v := range y {
				for _, got := range [][]float64{serial, split, adapted} {
					if math.Float64bits(got[i*b+j]) != math.Float64bits(v) {
						t.Fatalf("trial %d (n=%d b=%d): entry (%d,%d) = %v, MatVec gives %v", trial, n, b, i, j, got[i*b+j], v)
					}
				}
			}
		}
		for i, c := range seen {
			if c != 2 {
				t.Fatalf("trial %d: row %d finished %d times over two products, want 2", trial, i, c)
			}
		}
	}
}
