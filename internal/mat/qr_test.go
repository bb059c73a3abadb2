package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRLeastSquaresExact(t *testing.T) {
	// Square, consistent system: LS solution must equal the exact solution.
	rng := rand.New(rand.NewSource(20))
	a := randMatrix(rng, 8, 8)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := a.MulVec(x)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("LS exact mismatch at %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestQRLeastSquaresNormalEquations(t *testing.T) {
	// Overdetermined: QR solution satisfies AᵀA·x = Aᵀb.
	rng := rand.New(rand.NewSource(21))
	a := randMatrix(rng, 30, 6)
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ata := a.T().Mul(a)
	atb := a.MulVecT(b)
	lhs := ata.MulVec(x)
	for i := range lhs {
		if math.Abs(lhs[i]-atb[i]) > 1e-9*(1+math.Abs(atb[i])) {
			t.Fatalf("normal equations violated at %d: %v vs %v", i, lhs[i], atb[i])
		}
	}
}

func TestQRRIsTriangularAndReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randMatrix(rng, 10, 5)
	f := QRFactor(a)
	r := f.R()
	for i := 1; i < r.Rows; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R not triangular at (%d,%d)", i, j)
			}
		}
	}
	// ‖R‖F == ‖A‖F (orthogonal invariance) for full-column-rank tall A.
	if math.Abs(r.FrobNorm()-a.FrobNorm()) > 1e-10*a.FrobNorm() {
		t.Fatalf("Frobenius norm not preserved: %v vs %v", r.FrobNorm(), a.FrobNorm())
	}
	// ApplyQT preserves norms.
	v := make([]float64, 10)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	n0 := Norm2(v)
	f.ApplyQT(v)
	if math.Abs(Norm2(v)-n0) > 1e-10*n0 {
		t.Fatalf("ApplyQT changed the norm")
	}
}

func TestQRCompressR(t *testing.T) {
	// The compressed R₂₂ block must satisfy R₂₂ᵀR₂₂ = A₂ᵀ(I − P₁)A₂ where
	// P₁ projects onto range(A₁). Equivalently, least squares with the
	// compressed system gives the same solution for the trailing unknowns
	// when the leading unknowns are eliminated.
	rng := rand.New(rand.NewSource(23))
	m, n1, n2 := 40, 5, 4
	a := randMatrix(rng, m, n1+n2)
	r22 := QRCompressR(a, n1)
	if r22.Rows != n2 || r22.Cols != n2 {
		t.Fatalf("R22 dims %d×%d", r22.Rows, r22.Cols)
	}
	a1 := a.Slice(0, m, 0, n1)
	a2 := a.Slice(0, m, n1, n1+n2)
	// P₁ = A₁(A₁ᵀA₁)⁻¹A₁ᵀ
	inv, err := Inverse(a1.T().Mul(a1))
	if err != nil {
		t.Fatal(err)
	}
	p1 := a1.Mul(inv).Mul(a1.T())
	proj := a2.Sub(p1.Mul(a2))
	want := proj.T().Mul(proj) // = A₂ᵀ(I−P₁)A₂
	got := r22.T().Mul(r22)
	if !got.Equalish(want, 1e-8) {
		t.Fatalf("R22ᵀR22 mismatch:\n%v\nvs\n%v", got, want)
	}
}

// TestQRSharedCompressionBitwise pins the fast-VF compression identity:
// factoring A₁ once, reducing A₂ with ApplyQTMatrix and triangularizing
// the trailing rows reproduces QRCompressR([A₁ A₂], n1) bit for bit, with
// one factorization of A₁ shared by several A₂ blocks and with an
// all-zero column on either side.
func TestQRSharedCompressionBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		m := 10 + rng.Intn(40)
		n1 := 1 + rng.Intn(6)
		n2 := min(1+rng.Intn(m-n1), 7)
		a1 := randMatrix(rng, m, n1)
		if trial%5 == 4 {
			for i := 0; i < m; i++ {
				a1.Set(i, n1-1, 0)
			}
		}
		f := QRFactor(a1)
		for rep := 0; rep < 3; rep++ {
			a2 := randMatrix(rng, m, n2)
			if rep == 2 {
				for i := 0; i < m; i++ {
					a2.Set(i, 0, 0)
				}
			}
			full := NewMatrix(m, n1+n2)
			for i := 0; i < m; i++ {
				copy(full.Row(i), a1.Row(i))
				copy(full.Row(i)[n1:], a2.Row(i))
			}
			want := QRCompressR(full, n1)
			b := colMajorOf(a2)
			f.ApplyQTMatrix(b)
			tail := b.RowsFrom(n1)
			QRTriangularize(tail)
			for i := 0; i < n2; i++ {
				for j := 0; j < n2; j++ {
					if got := tail.Col(j)[i]; math.Float64bits(got) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("trial %d rep %d: R22(%d,%d) = %v, want %v", trial, rep, i, j, got, want.At(i, j))
					}
				}
			}
		}
		r := f.R()
		tri := colMajorOf(a1)
		QRTriangularize(tri)
		for i := 0; i < n1; i++ {
			for j := 0; j < n1; j++ {
				if got := tri.Col(j)[i]; math.Float64bits(got) != math.Float64bits(r.At(i, j)) {
					t.Fatalf("trial %d: QRTriangularize R(%d,%d) = %v, QRFactor %v", trial, i, j, got, r.At(i, j))
				}
			}
		}
	}
}

func TestQRPropertyResidualOrthogonal(t *testing.T) {
	// LS residual must be orthogonal to the column space of A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 8 + rng.Intn(20)
		n := 1 + rng.Intn(6)
		a := randMatrix(rng, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		r := a.MulVec(x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		atr := a.MulVecT(r)
		return Norm2(atr) < 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQRFactor200x26(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 200, 26)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QRFactor(a)
	}
}

// R returns the upper-triangular factor as a square n×n matrix (top block).
func (f *QR) R() *Matrix {
	n := f.a.Cols
	r := NewMatrix(n, n)
	for i := 0; i < min(n, f.a.Rows); i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, f.a.Data[j*f.a.Stride+i])
		}
	}
	return r
}
