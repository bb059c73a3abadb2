package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sigmaMaxBound is the tolerance of the σ_max kernel against the Jacobi
// oracle: the package-doc bound c·n·ε·σ_max with c = 4 and n the larger
// dimension, counted once for each of the two kernels.
func sigmaMaxBound(a *CMatrix, sigma float64) float64 {
	return 2 * 4 * float64(max(a.Rows, a.Cols)) * epsilon * sigma
}

// randUnitary returns a random n×n unitary matrix (the left singular
// vectors of a Gaussian matrix).
func randUnitary(rng *rand.Rand, n int) *CMatrix {
	return CSVDecompose(randomCMatrix(rng, n, n)).U
}

// withSingularValues builds U·diag(s)·Vᴴ for random unitary U (m×m) and V
// (n×n); s has min(m, n) entries.
func withSingularValues(rng *rand.Rand, m, n int, s []float64) *CMatrix {
	u, v := randUnitary(rng, m), randUnitary(rng, n)
	a := NewCMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var z complex128
			for l, sl := range s {
				z += u.At(i, l) * complex(sl, 0) * complexConj(v.At(j, l))
			}
			a.Set(i, j, z)
		}
	}
	return a
}

// TestMaxSingularValueIntoMatchesJacobi checks the kernel against the
// one-sided Jacobi oracle within the stated bound on random, ill-
// conditioned, rank-deficient, zero and non-square matrices, reusing one
// workspace across every shape.
func TestMaxSingularValueIntoMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type tc struct {
		name string
		a    *CMatrix
	}
	var cases []tc
	for _, d := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {8, 8}, {17, 17}, {45, 45},
		{5, 3}, {3, 5}, {9, 2}, {2, 9}, {12, 1}, {1, 12}, {30, 7}, {7, 30}} {
		m, n := d[0], d[1]
		k := min(m, n)
		cases = append(cases, tc{fmt.Sprintf("random %dx%d", m, n), randomCMatrix(rng, m, n)})
		ill := make([]float64, k)
		for i := range ill {
			ill[i] = math.Pow(1e-12, float64(i)/float64(max(k-1, 1)))
		}
		cases = append(cases, tc{fmt.Sprintf("ill-conditioned %dx%d", m, n), withSingularValues(rng, m, n, ill)})
		if k > 1 {
			def := make([]float64, k)
			for i := 0; i < (k+1)/2; i++ {
				def[i] = 1 + float64(i)
			}
			cases = append(cases, tc{fmt.Sprintf("rank-deficient %dx%d", m, n), withSingularValues(rng, m, n, def)})
		}
		cases = append(cases, tc{fmt.Sprintf("zero %dx%d", m, n), NewCMatrix(m, n)})
	}
	// Real, diagonal and already-tridiagonal inputs skip reflectors.
	diag := NewCMatrix(6, 6)
	for i := 0; i < 6; i++ {
		diag.Set(i, i, complex(float64(i+1), 0))
	}
	cases = append(cases, tc{"diagonal 6x6", diag})
	re := randomCMatrix(rng, 10, 10)
	for i := range re.Data {
		re.Data[i] = complex(real(re.Data[i]), 0)
	}
	cases = append(cases, tc{"real 10x10", re})

	var ws CSVDWorkspace
	for _, c := range cases {
		got := MaxSingularValueInto(&ws, c.a)
		want := SingularValues(c.a)[0]
		if d := math.Abs(got - want); d > sigmaMaxBound(c.a, want) {
			t.Errorf("%s: kernel %.17g, Jacobi %.17g (|Δ|/σ = %.3g)", c.name, got, want, d/want)
		}
	}
}

// TestMaxSingularValueIntoClusters: a top singular value cluster with
// σ₁ − σ₂ ≤ 1e-12·σ₁ costs bisection nothing, unlike an iterative
// estimator whose convergence rate is the gap.
func TestMaxSingularValueIntoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws CSVDWorkspace
	for _, n := range []int{3, 4, 8, 16, 45} {
		for _, gap := range []float64{1e-12, 1e-14, 0} {
			s := make([]float64, n)
			for i := range s {
				s[i] = 0.5 * (1 - gap*float64(i))
			}
			s[n-1] = 0.1 // the rest of the spectrum sits far below
			a := withSingularValues(rng, n, n, s)
			got := MaxSingularValueInto(&ws, a)
			want := SingularValues(a)[0]
			if d := math.Abs(got - want); d > sigmaMaxBound(a, want) {
				t.Errorf("n=%d gap %g: kernel %.17g, Jacobi %.17g", n, gap, got, want)
			}
			if math.Abs(got-0.5) > sigmaMaxBound(a, 0.5) {
				t.Errorf("n=%d gap %g: kernel %.17g, constructed σ₁ = 0.5", n, gap, got)
			}
		}
	}
}

// TestMaxSingularValueIntoClosedForms pins the 1×1 and 2×2 shortcuts to
// their exact values and the Jacobi oracle.
func TestMaxSingularValueIntoClosedForms(t *testing.T) {
	var ws CSVDWorkspace
	one := NewCMatrixFrom([][]complex128{{3 - 4i}})
	if got := MaxSingularValueInto(&ws, one); got != 5 {
		t.Fatalf("1×1: %v, want 5", got)
	}
	// diag(3, 2i) and a unitary: σ_max 3 and 1.
	d := NewCMatrixFrom([][]complex128{{3, 0}, {0, 2i}})
	if got := MaxSingularValueInto(&ws, d); got != 3 {
		t.Fatalf("diag(3, 2i): %v, want 3", got)
	}
	h := complex(1/math.Sqrt2, 0)
	u := NewCMatrixFrom([][]complex128{{h, 1i * h}, {1i * h, h}})
	if got := MaxSingularValueInto(&ws, u); math.Abs(got-1) > 4*epsilon {
		t.Fatalf("unitary: %v, want 1", got)
	}
	// Column, row and m×2 shapes reach the same closed forms.
	rng := rand.New(rand.NewSource(43))
	for _, dims := range [][2]int{{2, 2}, {7, 1}, {1, 7}, {6, 2}, {2, 6}} {
		for trial := 0; trial < 20; trial++ {
			a := randomCMatrix(rng, dims[0], dims[1])
			got := MaxSingularValueInto(&ws, a)
			want := SingularValues(a)[0]
			if math.Abs(got-want) > sigmaMaxBound(a, want) {
				t.Fatalf("%v: %.17g, Jacobi %.17g", dims, got, want)
			}
		}
	}
}

// TestMaxSingularValueIntoExtremeScales: entries whose squares would
// overflow or underflow are rescaled exactly; NaN and Inf propagate.
func TestMaxSingularValueIntoExtremeScales(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var ws CSVDWorkspace
	for _, n := range []int{2, 5} {
		a := randomCMatrix(rng, n, n)
		want := MaxSingularValueInto(&ws, a)
		for _, f := range []float64{0x1p600, 0x1p-600, 1e300, 1e-300} {
			b := a.Clone()
			for i := range b.Data {
				b.Data[i] *= complex(f, 0)
			}
			got := MaxSingularValueInto(&ws, b)
			if math.Abs(got/f-want) > sigmaMaxBound(a, want) {
				t.Errorf("n=%d scale %g: %v, want %v", n, f, got/f, want)
			}
		}
		b := a.Clone()
		b.Data[1] = complex(math.NaN(), 0)
		if got := MaxSingularValueInto(&ws, b); !math.IsNaN(got) {
			t.Errorf("n=%d NaN entry: %v", n, got)
		}
		b.Data[1] = complex(0, math.Inf(-1))
		if got := MaxSingularValueInto(&ws, b); !math.IsInf(got, 1) {
			t.Errorf("n=%d Inf entry: %v", n, got)
		}
	}
	if got := MaxSingularValueInto(&ws, NewCMatrix(0, 3)); got != 0 {
		t.Errorf("0×3: %v", got)
	}
}

// TestSturmCountZeroPivot: a pivot of T − xI that vanishes exactly is
// replaced by −pivmin, so the count stays the number of eigenvalues ≤ x.
// T = [[1,1,0],[1,2,1],[0,1,3]] has eigenvalues 2 − √3, 2 and 2 + √3; at
// x = 1 its first pivot is 0, and without the floor the next one would be
// −Inf and counted.
func TestSturmCountZeroPivot(t *testing.T) {
	d, e2 := []float64{1, 2, 3}, []float64{1, 1}
	pivmin := 0x1p-1022
	c1, c2, c3 := sturmCount3(d, e2, 1, 2.5, 4, pivmin)
	if c1 != 1 || c2 != 2 || c3 != 3 {
		t.Fatalf("counts at 1, 2.5, 4 = %d, %d, %d, want 1, 2, 3", c1, c2, c3)
	}
	if got, want := sturmMaxEigenvalue(d, e2), 2+math.Sqrt(3); math.Abs(got-want) > 8*epsilon*want {
		t.Fatalf("λ_max = %.17g, want %.17g", got, want)
	}
}

// TestMaxSingularValueIntoZeroAllocs: the kernel runs once per frequency
// sample and must not allocate on a warm workspace.
func TestMaxSingularValueIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var ws CSVDWorkspace
	for _, d := range [][2]int{{2, 2}, {8, 8}, {9, 4}, {4, 9}} {
		a := randomCMatrix(rng, d[0], d[1])
		MaxSingularValueInto(&ws, a)
		if n := testing.AllocsPerRun(50, func() { MaxSingularValueInto(&ws, a) }); n != 0 {
			t.Fatalf("%v: %v allocations per call on a warm workspace", d, n)
		}
	}
}

// BenchmarkMaxSingularValue compares the σ_max kernel with the Jacobi
// values-only kernel it replaces on the per-frequency path, at the port
// counts of the 2-port and 4-port service models, the 8-port paper flow
// and the 45-port paper case.
func BenchmarkMaxSingularValue(b *testing.B) {
	for _, n := range []int{2, 4, 8, 45} {
		a := randomCMatrix(rand.New(rand.NewSource(int64(n))), n, n)
		b.Run(fmt.Sprintf("n=%d/kernel", n), func(b *testing.B) {
			var ws CSVDWorkspace
			for i := 0; i < b.N; i++ {
				MaxSingularValueInto(&ws, a)
			}
		})
		b.Run(fmt.Sprintf("n=%d/jacobi", n), func(b *testing.B) {
			var ws CSVDWorkspace
			var sv []float64
			for i := 0; i < b.N; i++ {
				sv = SingularValuesInto(&ws, a, sv)
			}
		})
	}
}
