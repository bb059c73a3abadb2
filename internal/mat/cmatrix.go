package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CMatrix is a dense, row-major complex matrix.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewCMatrix returns a zero r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// NewCMatrixFrom builds a complex matrix from a slice of rows.
func NewCMatrixFrom(rows [][]complex128) *CMatrix {
	r := len(rows)
	if r == 0 {
		return NewCMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewCMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// CIdentity returns the n×n complex identity.
func CIdentity(n int) *CMatrix {
	m := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// RealToComplex lifts a real matrix into a complex one.
func RealToComplex(a *Matrix) *CMatrix {
	m := NewCMatrix(a.Rows, a.Cols)
	for i, v := range a.Data {
		m.Data[i] = complex(v, 0)
	}
	return m
}

// At returns element (i,j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *CMatrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	c := NewCMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Col returns a copy of column j.
func (m *CMatrix) Col(j int) []complex128 {
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// T returns the (non-conjugating) transpose.
func (m *CMatrix) T() *CMatrix {
	t := NewCMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Add returns m + b.
func (m *CMatrix) Add(b *CMatrix) *CMatrix {
	checkSameShapeC(m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m − b.
func (m *CMatrix) Sub(b *CMatrix) *CMatrix {
	checkSameShapeC(m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s·m.
func (m *CMatrix) Scale(s complex128) *CMatrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *CMatrix) Mul(b *CMatrix) *CMatrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewCMatrix(m.Rows, b.Cols)
	CMulInto(out, m, b)
	return out
}

// CMulInto computes dst = a·b for complex matrices. dst must not alias a or b.
func CMulInto(dst, a, b *CMatrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: CMulInto shape mismatch")
	}
	n := a.Cols
	bc := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*bc : (i+1)*bc]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*bc : (k+1)*bc]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulVec returns m·x.
func (m *CMatrix) MulVec(x []complex128) []complex128 {
	return m.MulVecInto(make([]complex128, m.Rows), x)
}

// MulVecInto computes dst = m·x into the caller-owned dst
// (allocation-free). dst must have length m.Rows and not alias x.
func (m *CMatrix) MulVecInto(dst, x []complex128) []complex128 {
	if m.Cols != len(x) || len(dst) != m.Rows {
		panic("mat: MulVecInto shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulVecH returns mᴴ·x.
func (m *CMatrix) MulVecH(x []complex128) []complex128 {
	return m.MulVecHInto(make([]complex128, m.Cols), x)
}

// MulVecHInto computes dst = mᴴ·x into the caller-owned dst
// (allocation-free). dst must have length m.Cols and not alias x.
func (m *CMatrix) MulVecHInto(dst, x []complex128) []complex128 {
	if m.Rows != len(x) || len(dst) != m.Cols {
		panic("mat: MulVecHInto shape mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += cmplx.Conj(v) * xi
		}
	}
	return dst
}

// FrobNorm returns the Frobenius norm.
func (m *CMatrix) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest entry magnitude.
func (m *CMatrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Real returns the element-wise real part.
func (m *CMatrix) Real() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = real(v)
	}
	return out
}

// Equalish reports whether m and b agree entry-wise within tol.
func (m *CMatrix) Equalish(b *CMatrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func checkSameShapeC(a, b *CMatrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// CDot returns xᴴ·y (conjugating the first argument).
func CDot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic("mat: CDot length mismatch")
	}
	var s complex128
	for i, v := range x {
		s += cmplx.Conj(v) * y[i]
	}
	return s
}

// CNorm2 returns the Euclidean norm of the complex vector x.
func CNorm2(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}
