package linalg

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphio/internal/obs"
)

// pathLaplacian returns the Laplacian of the unweighted path on n vertices,
// whose eigenvalues are 2 − 2cos(πj/n), j = 0..n−1.
func pathLaplacian(n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n-1; i++ {
		m.Add(i, i, 1)
		m.Add(i+1, i+1, 1)
		m.Add(i, i+1, -1)
		m.Add(i+1, i, -1)
	}
	return m
}

func pathEigenvalues(n int) []float64 {
	vals := make([]float64, n)
	for j := 0; j < n; j++ {
		vals[j] = 2 - 2*math.Cos(math.Pi*float64(j)/float64(n))
	}
	insertionSort(vals)
	return vals
}

// cycleLaplacian returns the Laplacian of the n-cycle, eigenvalues
// 2 − 2cos(2πj/n).
func cycleLaplacian(n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		m.Add(i, i, 1)
		m.Add(j, j, 1)
		m.Add(i, j, -1)
		m.Add(j, i, -1)
	}
	return m
}

func cycleEigenvalues(n int) []float64 {
	vals := make([]float64, n)
	for j := 0; j < n; j++ {
		vals[j] = 2 - 2*math.Cos(2*math.Pi*float64(j)/float64(n))
	}
	insertionSort(vals)
	return vals
}

// completeLaplacian: K_n has eigenvalues {0, n (multiplicity n−1)}.
func completeLaplacian(n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m.Set(i, j, float64(n-1))
			} else {
				m.Set(i, j, -1)
			}
		}
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestSymEigPath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 64} {
		vals, _, err := SymEig(pathLaplacian(n), false)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(vals, pathEigenvalues(n)); d > 1e-10 {
			t.Errorf("n=%d: max eigenvalue error %g", n, d)
		}
	}
}

func TestSymEigCycle(t *testing.T) {
	for _, n := range []int{3, 4, 10, 33} {
		vals, _, err := SymEig(cycleLaplacian(n), false)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(vals, cycleEigenvalues(n)); d > 1e-10 {
			t.Errorf("n=%d: max eigenvalue error %g", n, d)
		}
	}
}

func TestSymEigComplete(t *testing.T) {
	n := 12
	vals, _, err := SymEig(completeLaplacian(n), false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]) > 1e-10 {
		t.Errorf("λ0 = %g, want 0", vals[0])
	}
	for i := 1; i < n; i++ {
		if math.Abs(vals[i]-float64(n)) > 1e-10 {
			t.Errorf("λ%d = %g, want %d", i, vals[i], n)
		}
	}
}

func TestSymEigDiagonal(t *testing.T) {
	m := NewDense(4)
	want := []float64{-3, 0.5, 2, 7}
	perm := []int{2, 0, 3, 1}
	for i, p := range perm {
		m.Set(i, i, want[p])
	}
	vals, vecs, err := SymEig(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(vals, want); d > 1e-12 {
		t.Errorf("diagonal eigenvalues off by %g", d)
	}
	if vecs == nil {
		t.Fatal("wantV returned nil vectors")
	}
}

func TestSymEig2x2Exact(t *testing.T) {
	// [[2, 1], [1, 2]] has eigenvalues 1 and 3.
	m := NewDense(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	vals, _, err := SymEig(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(vals, []float64{1, 3}); d > 1e-12 {
		t.Errorf("2x2 eigenvalues %v", vals)
	}
}

func randomSymmetric(rng *rand.Rand, n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigResidualsAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(40)
		a := randomSymmetric(rng, n)
		vals, vecs, err := SymEig(a, true)
		if err != nil {
			t.Fatal(err)
		}
		// Residual ||A v − λ v|| small for each eigenpair.
		av := make([]float64, n)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			for r := 0; r < n; r++ {
				v[r] = vecs.At(r, i)
			}
			a.MatVec(av, v)
			Axpy(-vals[i], v, av)
			if r := Norm2(av); r > 1e-9*float64(n) {
				t.Errorf("trial %d: residual %g for eigenpair %d", trial, r, i)
			}
		}
		// Columns orthonormal.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var dot float64
				for r := 0; r < n; r++ {
					dot += vecs.At(r, i) * vecs.At(r, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Errorf("trial %d: <v%d,v%d> = %g", trial, i, j, dot)
				}
			}
		}
	}
}

func TestSymEigTracePreserved(t *testing.T) {
	// Property: sum of eigenvalues equals the trace.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		a := randomSymmetric(rng, n)
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		vals, _, err := SymEig(a, false)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return math.Abs(sum-trace) <= 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSymEigEmpty(t *testing.T) {
	vals, vecs, err := SymEig(NewDense(0), true)
	if err != nil || vals != nil || vecs != nil {
		t.Errorf("empty matrix: %v %v %v", vals, vecs, err)
	}
}

// The dense path's top-level solve reports its QL sweeps and the wall time
// of each stage to the caller's scope.
func TestSymEigValuesReportsStages(t *testing.T) {
	obs.Enable(true)
	t.Cleanup(func() { obs.Enable(false) })
	sc := obs.NewScope(t.Name())
	t.Cleanup(sc.Close)
	if _, err := SymEigValuesContext(obs.WithScope(context.Background(), sc), cycleLaplacian(64)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"linalg.dense.ql_iters", "linalg.dense.tred2_ns", "linalg.dense.tql2_ns"} {
		if v := sc.Counter(name); v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
}

func TestTridiagEigMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(25)
		diag := make([]float64, n)
		sub := make([]float64, n-1)
		m := NewDense(n)
		for i := range diag {
			diag[i] = rng.NormFloat64()
			m.Set(i, i, diag[i])
		}
		for i := range sub {
			sub[i] = rng.NormFloat64()
			m.Set(i, i+1, sub[i])
			m.Set(i+1, i, sub[i])
		}
		want, _, err := SymEig(m, false)
		if err != nil {
			t.Fatal(err)
		}
		got, vecs, err := TridiagEig(diag, sub, true)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("trial %d: tridiag vs dense differ by %g", trial, d)
		}
		// Eigenvector residual check against the tridiagonal matrix.
		av := make([]float64, n)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			for r := 0; r < n; r++ {
				v[r] = vecs.At(r, i)
			}
			m.MatVec(av, v)
			Axpy(-got[i], v, av)
			if r := Norm2(av); r > 1e-9*float64(n) {
				t.Errorf("trial %d: tridiag eigenpair %d residual %g", trial, i, r)
			}
		}
	}
}

func TestTridiagEigBadInput(t *testing.T) {
	if _, _, err := TridiagEig([]float64{1, 2}, []float64{}, false); err == nil {
		t.Error("mismatched subdiagonal accepted")
	}
}

func TestDenseIsSymmetric(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 1, 1)
	if m.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	m.Set(1, 0, 1)
	if !m.IsSymmetric(1e-12) {
		t.Error("symmetric matrix reported asymmetric")
	}
}
