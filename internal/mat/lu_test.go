package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 1; n <= 20; n += 3 {
		a := randMatrix(rng, n, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLin(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9*(1+Norm2(b)) {
				t.Fatalf("n=%d residual too large at %d: %v vs %v", n, i, r[i], b[i])
			}
		}
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 8, 8)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	eye := a.Mul(inv)
	if !eye.Equalish(Identity(8), 1e-9) {
		t.Fatalf("A·A⁻¹ != I:\n%v", eye)
	}
}

func TestLUDet(t *testing.T) {
	a := NewMatrixFrom([][]float64{{2, 0}, {0, 3}})
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-6) > 1e-12 {
		t.Fatalf("det = %v want 6", f.Det())
	}
	// Permutation flips the sign.
	b := NewMatrixFrom([][]float64{{0, 1}, {1, 0}})
	fb, err := LUFactor(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fb.Det()+1) > 1e-12 {
		t.Fatalf("det(perm) = %v want -1", fb.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := LUFactor(a); err == nil {
		t.Fatalf("expected ErrSingular")
	}
}

func TestLUSolveMatrixRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 6, 6)
	b := randMatrix(rng, 6, 3)
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(b)
	if !a.Mul(x).Equalish(b, 1e-9) {
		t.Fatalf("matrix RHS solve residual")
	}
}

func TestLUPropertySolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randMatrix(rng, n, n)
		// Make well conditioned by adding n·I.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveLin(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 16; n += 5 {
		a := randCMatrix(rng, n, n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := a.MulVec(x)
		got, err := CSolveLin(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range got {
			if cAbs(got[i]-x[i]) > 1e-8*(1+cAbs(x[i])) {
				t.Fatalf("n=%d mismatch at %d: %v vs %v", n, i, got[i], x[i])
			}
		}
	}
}

func TestCInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randCMatrix(rng, 7, 7)
	inv, err := CInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mul(inv).Equalish(CIdentity(7), 1e-9) {
		t.Fatalf("A·A⁻¹ != I (complex)")
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCMatrixFrom([][]complex128{{1 + 1i, 2 + 2i}, {2 + 2i, 4 + 4i}})
	if _, err := CLUFactor(a); err == nil {
		t.Fatalf("expected singular error")
	}
}

func BenchmarkLUFactor50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LUFactor(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLUFactor100(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randCMatrix(rng, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CLUFactor(a); err != nil {
			b.Fatal(err)
		}
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
