package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randCMatrix(rng *rand.Rand, r, c int) *CMatrix {
	m := NewCMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randSPD(rng *rand.Rand, n int) *Matrix {
	b := randMatrix(rng, n+2, n)
	p := b.T().Mul(b)
	for i := 0; i < n; i++ {
		p.Set(i, i, p.At(i, i)+0.5)
	}
	return p
}

func TestMatrixBasicOps(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	sum := a.Add(b)
	if sum.At(0, 0) != 6 || sum.At(1, 1) != 12 {
		t.Fatalf("Add wrong: %v", sum)
	}
	diff := b.Sub(a)
	if diff.At(0, 0) != 4 || diff.At(1, 0) != 4 {
		t.Fatalf("Sub wrong: %v", diff)
	}
	prod := a.Mul(b)
	want := NewMatrixFrom([][]float64{{19, 22}, {43, 50}})
	if !prod.Equalish(want, 1e-14) {
		t.Fatalf("Mul wrong: %v want %v", prod, want)
	}
	if a.T().At(0, 1) != 3 {
		t.Fatalf("T wrong")
	}
	if got := a.Trace(); got != 5 {
		t.Fatalf("Trace = %v want 5", got)
	}
	sc := a.Scale(2)
	if sc.At(1, 1) != 8 {
		t.Fatalf("Scale wrong")
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 0, -1}
	y := a.MulVec(x)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v", y)
	}
	z := a.MulVecT([]float64{1, 1})
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("MulVecT = %v", z)
	}
}

func TestMatrixTransposeProductProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		return lhs.Equalish(rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 6, 7)
	s := a.Slice(1, 4, 2, 6)
	if s.Rows != 3 || s.Cols != 4 {
		t.Fatalf("Slice dims %d×%d", s.Rows, s.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if s.At(i, j) != a.At(i+1, j+2) {
				t.Fatalf("Slice content mismatch at (%d,%d)", i, j)
			}
		}
	}
	b := NewMatrix(6, 7)
	b.SetSlice(1, 2, s)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if b.At(i+1, j+2) != s.At(i, j) {
				t.Fatalf("SetSlice mismatch")
			}
		}
	}
}

func TestCMatrixHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCMatrix(rng, 4, 5)
	h := a.H()
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if h.At(j, i) != complexConj(a.At(i, j)) {
				t.Fatalf("H mismatch")
			}
		}
	}
	// (A·B)ᴴ == Bᴴ·Aᴴ
	b := randCMatrix(rng, 5, 3)
	lhs := a.Mul(b).H()
	rhs := b.H().Mul(a.H())
	if !lhs.Equalish(rhs, 1e-12) {
		t.Fatalf("(AB)^H != B^H A^H")
	}
}

func complexConj(z complex128) complex128 { return complex(real(z), -imag(z)) }

func TestCMatrixMulVecH(t *testing.T) {
	a := NewCMatrixFrom([][]complex128{{1 + 1i, 2}, {0, 3 - 1i}})
	x := []complex128{1, 1i}
	got := a.MulVecH(x)
	want := a.H().MulVec(x)
	for i := range got {
		if cAbs(got[i]-want[i]) > 1e-14 {
			t.Fatalf("MulVecH = %v want %v", got, want)
		}
	}
}

func cAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

func TestNorm2Overflow(t *testing.T) {
	x := []float64{1e200, 1e200}
	got := Norm2(x)
	want := math.Sqrt2 * 1e200
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Norm2 overflow handling: got %v want %v", got, want)
	}
	if Norm2(nil) != 0 || Norm2([]float64{0, 0}) != 0 {
		t.Fatalf("Norm2 zero cases")
	}
}

func TestDotAndCDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatalf("Dot")
	}
	got := CDot([]complex128{1i, 1}, []complex128{1, 1i})
	// conj(i)*1 + conj(1)*i = -i + i = 0
	if cAbs(got) > 1e-15 {
		t.Fatalf("CDot = %v want 0", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize: %v", a)
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 2)
	a.Add(b)
}

// H returns the conjugate transpose as a new matrix.
func (m *CMatrix) H() *CMatrix {
	t := NewCMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = cmplx.Conj(m.Data[i*m.Cols+j])
		}
	}
	return t
}
