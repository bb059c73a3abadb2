// Package mat provides dense real and complex linear algebra used by the
// macromodeling stack: LU, QR, Cholesky, SVD (one-sided Jacobi), a
// values-only spectral-norm kernel, symmetric Jacobi eigendecomposition,
// Hessenberg reduction, real Schur form (Francis double-shift QR), a
// values-only eigenvalue path, and Bartels–Stewart Lyapunov/Sylvester
// solvers.
//
// # Spectral norm
//
// MaxSingularValueInto computes σ_max(A) alone, for an m×n complex A: it
// forms the Gram matrix G = AᴴA (AAᴴ when m < n), reduces G to real
// tridiagonal form with complex Householder reflectors and finds λ_max(G)
// by Sturm-count bisection; σ_max = √λ_max. Each step is backward stable
// in the normwise sense, so the computed σ̂ satisfies
//
//	|σ̂ − σ_max| ≤ c·n·ε·σ_max,  n = max(m, n), ε = 2⁻⁵³,
//
// with c a small constant: forming G perturbs λ_max by about n·ε·σ_max²
// (worst case a further factor min(m, n), from ‖|A|‖₂² ≤ min(m, n)·‖A‖₂²),
// the reduction and the bisection add a few ε·‖G‖, and a perturbation δ
// of σ_max² moves σ_max by δ/(2σ_max). The tests hold the kernel to c = 4
// against one-sided Jacobi, whose own error is of the same order; the
// largest disagreement seen on random, ill-conditioned and clustered
// matrices up to 45×45 is under 2·n·ε·σ_max. The bound is absolute in
// σ_max, which is what a comparison σ_max > 1 needs, and it does not
// depend on the gap to σ₂: bisection converges to the top eigenvalue
// directly, so a cluster of nearly equal singular values neither slows it
// nor biases it low, unlike power or subspace iteration.
//
// # Eigenvalues
//
// One Francis double-shift iteration (hqr2, EISPACK/JAMA) runs over row
// slices in two modes, like LAPACK dlahqr's wantt. SchurDecompose runs the
// Schur mode: it keeps the whole quasi-triangular T, rotating converged
// real 2×2 blocks to triangular form, and returns T exactly zero below its
// first subdiagonal. EigenValues and EigenValuesCtx read only the
// eigenvalues and run the values-only mode: the row update of each double
// QR step stops at the active window's last column and the real 2×2
// rotation is skipped, which changes no entry a later step reads. The
// values are bit for bit those of the Schur mode on the same balanced
// Hessenberg matrix; the one case that reads the whole matrix (a zero
// deflation scale) reruns in the Schur mode. EigenValuesCtx checks its
// context once per Hessenberg column and once per Francis iteration.
//
// # Householder QR
//
// QRFactor keeps its factor column-major (ColMajor), and ApplyQTMatrix
// and QRTriangularize work on column-major blocks, four columns per pass.
// Each column's reflector dot product still accumulates in ascending row
// order, so R, the reflectors and every reduced block are bit for bit
// those of the row-major form they replaced (kept in the tests as the
// oracle).
//
// The package is self-contained (standard library only) and tuned for the
// moderate matrix sizes that arise in rational macromodeling: state-space
// dimensions up to a few hundred and port counts up to ~100. Storage is
// row-major in flat slices, except for the column-major QR kernels.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have
// equal length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	checkSameShape(m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	checkSameShape(m, b)
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s·m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	MulInto(out, m, b)
	return out
}

// MulInto computes dst = a·b. dst must be pre-sized and must not alias a or b.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulInto shape mismatch")
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

// MulVec returns m·x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic("mat: MulVec shape mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecT returns mᵀ·x as a new vector.
func (m *Matrix) MulVecT(x []float64) []float64 {
	if m.Rows != len(x) {
		panic("mat: MulVecT shape mismatch")
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y
}

// FrobNorm returns the Frobenius norm.
func (m *Matrix) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Trace returns the sum of diagonal entries (square matrices).
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("mat: Trace of non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		s += m.Data[i*m.Cols+i]
	}
	return s
}

// Symmetrize replaces m with (m+mᵀ)/2 in place (square matrices).
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize of non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// Slice returns a copy of the sub-matrix with rows [r0,r1) and cols [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic("mat: Slice out of range")
	}
	out := NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SetSlice copies src into m starting at (r0, c0).
func (m *Matrix) SetSlice(r0, c0 int, src *Matrix) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols || r0 < 0 || c0 < 0 {
		panic("mat: SetSlice out of range")
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Row(i))
	}
}

// Equalish reports whether m and b agree entry-wise within tol.
func (m *Matrix) Equalish(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String formats the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %d×%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .6e ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Dot returns the Euclidean inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled to avoid overflow for very large entries.
	mx := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		t := v / mx
		s += t * t
	}
	return mx * math.Sqrt(s)
}
