package mat

import (
	"math"
)

// ColMajor is an m×n real matrix stored column by column: element (i, j)
// is Data[j*Stride+i], with Stride ≥ Rows. The Householder QR kernels work
// on this layout, so every reflector and every column it updates is
// contiguous; RowsFrom views a block of trailing rows without copying.
type ColMajor struct {
	Rows, Cols, Stride int
	Data               []float64
}

// NewColMajor returns a zero r×c column-major matrix with Stride r.
func NewColMajor(r, c int) ColMajor {
	return ColMajor{Rows: r, Cols: c, Stride: r, Data: make([]float64, r*c)}
}

// Col returns column j, aliasing the storage.
func (a ColMajor) Col(j int) []float64 {
	o := j * a.Stride
	return a.Data[o : o+a.Rows]
}

// RowsFrom returns the view of rows r0..Rows−1, aliasing the storage.
func (a ColMajor) RowsFrom(r0 int) ColMajor {
	return ColMajor{Rows: a.Rows - r0, Cols: a.Cols, Stride: a.Stride, Data: a.Data[r0:]}
}

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q m×m orthogonal (stored implicitly as Householder vectors)
// and R m×n upper trapezoidal.
type QR struct {
	a    ColMajor  // R on/above the diagonal, Householder vectors below
	beta []float64 // Householder scalar per reflector
}

// QRFactor computes the QR factorization of a (m ≥ n required for the
// least-squares solver; the factorization itself works for any shape with
// min(m,n) reflectors). The input is not modified; the factor is kept
// column-major, so applying the reflectors (ApplyQT, ApplyQTMatrix) reads
// them contiguously.
func QRFactor(a *Matrix) *QR {
	m, n := a.Rows, a.Cols
	c := NewColMajor(m, n)
	for i := 0; i < m; i++ {
		for j, x := range a.Row(i) {
			c.Data[j*m+i] = x
		}
	}
	beta := make([]float64, min(m, n))
	householder(c, beta)
	return &QR{a: c, beta: beta}
}

// QRTriangularize overwrites the column-major a with the triangular factor
// R of its Householder QR: R on and above the diagonal, zeros below. The
// reflectors are discarded. R is bit for bit the R of QRFactor of the
// same matrix.
func QRTriangularize(a ColMajor) {
	householder(a, nil)
	for j := 0; j < min(a.Rows, a.Cols); j++ {
		clear(a.Col(j)[j+1:])
	}
}

// householder reduces a in place, column by column, with Householder
// reflectors: R on and above the diagonal, each reflector's normalized
// vector below it and its scalar in beta (zeroed by the caller, nil to
// drop the scalars; a zero column keeps beta 0). Reflector j depends only
// on column j after reflectors 0..j−1, and every column is updated by the
// same per-column operation sequence (applyReflector), so columns never
// influence one another's arithmetic: that is what lets QR.ApplyQTMatrix
// reproduce this reduction for extra columns.
func householder(a ColMajor, beta []float64) {
	for j := 0; j < min(a.Rows, a.Cols); j++ {
		// The column norm uses a scaled two-pass sum instead of per-element
		// math.Hypot: the QR of the Vector Fitting blocks is a hot loop of
		// the library.
		x := a.Col(j)[j:]
		amax := 0.0
		for _, xi := range x {
			if a := math.Abs(xi); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			continue
		}
		sumSq := 0.0
		for _, xi := range x {
			t := xi / amax
			sumSq += t * t
		}
		norm := amax * math.Sqrt(sumSq)
		x0 := x[0]
		alpha := norm
		if x0 > 0 {
			alpha = -norm
		}
		// v = x − alpha·e1, normalized so v[0] = 1, stored in place below
		// the diagonal; R's alpha goes on the diagonal.
		v0 := x0 - alpha
		v := x[1:]
		for i := range v {
			v[i] /= v0
		}
		bj := -v0 / alpha
		if beta != nil {
			beta[j] = bj
		}
		x[0] = alpha
		applyReflector(a, j, j+1, a.Cols, v, bj)
	}
}

// applyReflector applies I − β·u·uᵀ, u = [1; v], to rows r0.. of columns
// c0..c1−1 of a, four columns per pass. Each column's dot product uᵀy
// still accumulates in ascending row order, so the result is bit for bit
// that of one column at a time.
func applyReflector(a ColMajor, r0, c0, c1 int, v []float64, beta float64) {
	st, m := a.Stride, a.Rows
	c := c0
	for ; c+4 <= c1; c += 4 {
		o := c*st + r0
		reflect4(a.Data[o:o+m-r0], a.Data[o+st:o+st+m-r0], a.Data[o+2*st:o+2*st+m-r0], a.Data[o+3*st:o+3*st+m-r0], v, beta)
	}
	for ; c < c1; c++ {
		o := c*st + r0
		reflect1(a.Data[o:o+m-r0], v, beta)
	}
}

// reflect1 applies I − β·u·uᵀ, u = [1; v], to y (len(v)+1 rows):
// s = β·(y₀ + Σᵢ vᵢ·yᵢ₊₁), then y₀ −= s and yᵢ₊₁ −= s·vᵢ.
func reflect1(y, v []float64, beta float64) {
	t := y[1 : len(v)+1]
	s := y[0]
	for i, vi := range v {
		s += vi * t[i]
	}
	s *= beta
	y[0] -= s
	for i, vi := range v {
		t[i] -= s * vi
	}
}

// reflect4 is reflect1 on four columns at once, sharing the loads of v.
func reflect4(y0, y1, y2, y3, v []float64, beta float64) {
	n := len(v)
	t0, t1, t2, t3 := y0[1:n+1], y1[1:n+1], y2[1:n+1], y3[1:n+1]
	s0, s1, s2, s3 := y0[0], y1[0], y2[0], y3[0]
	for i, vi := range v {
		s0 += vi * t0[i]
		s1 += vi * t1[i]
		s2 += vi * t2[i]
		s3 += vi * t3[i]
	}
	s0 *= beta
	s1 *= beta
	s2 *= beta
	s3 *= beta
	y0[0] -= s0
	y1[0] -= s1
	y2[0] -= s2
	y3[0] -= s3
	for i, vi := range v {
		t0[i] -= s0 * vi
		t1[i] -= s1 * vi
		t2[i] -= s2 * vi
		t3[i] -= s3 * vi
	}
}

// ApplyQT overwrites b (length m) with Qᵀ·b.
func (f *QR) ApplyQT(b []float64) {
	if len(b) != f.a.Rows {
		panic("mat: ApplyQT length mismatch")
	}
	for j, bj := range f.beta {
		if bj == 0 {
			continue
		}
		reflect1(b[j:], f.a.Col(j)[j+1:], bj)
	}
}

// ApplyQTMatrix overwrites the column-major b (as many rows as the
// factored matrix) with Qᵀ·b, four columns per pass, running on every
// column of b exactly the operation sequence that QRFactor runs on a
// trailing column. For A = [A₁ A₂] and f = QRFactor(A₁),
// f.ApplyQTMatrix(A₂) therefore leaves A₂ bit for bit as the first A₁.Cols
// reflectors of QRFactor(A) leave it, however many times f is reused. f is
// only read, so goroutines may share it, each with its own b.
func (f *QR) ApplyQTMatrix(b ColMajor) {
	if b.Rows != f.a.Rows {
		panic("mat: ApplyQTMatrix row mismatch")
	}
	for c := 0; c < b.Cols; c += 4 {
		c1 := min(c+4, b.Cols)
		for j, bj := range f.beta {
			if bj == 0 {
				continue
			}
			applyReflector(b, j, c, c1, f.a.Col(j)[j+1:], bj)
		}
	}
}

// SolveVec solves the least-squares problem min‖A·x − b‖₂ for tall A.
func (f *QR) SolveVec(b []float64) ([]float64, error) {
	m, n := f.a.Rows, f.a.Cols
	if m < n {
		panic("mat: QR SolveVec requires m ≥ n")
	}
	if len(b) != m {
		panic("mat: QR SolveVec length mismatch")
	}
	w := make([]float64, m)
	copy(w, b)
	f.ApplyQT(w)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := w[i]
		for j := i + 1; j < n; j++ {
			s -= f.a.Data[j*m+i] * x[j]
		}
		d := f.a.Data[i*m+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// LeastSquares solves min‖A·x − b‖₂ via Householder QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return QRFactor(a).SolveVec(b)
}

// QRCompressR computes the QR factorization of a and returns only the
// trailing diagonal block R[c0:, c0:] of the triangular factor, an
// (n−c0)×(n−c0) matrix. This is the compression step of fast vector
// fitting: for a block matrix [A₁ A₂], the R₂₂ block captures the projection
// of A₂ onto the orthogonal complement of range(A₁). Vector Fitting reaches
// the same block without refactoring a shared A₁ (QRFactor(A₁) once, then
// ApplyQTMatrix and QRTriangularize per A₂); this direct form is the
// oracle its tests compare against.
func QRCompressR(a *Matrix, c0 int) *Matrix {
	f := QRFactor(a)
	n := a.Cols
	if c0 < 0 || c0 > n {
		panic("mat: QRCompressR split out of range")
	}
	size := n - c0
	out := NewMatrix(size, size)
	for i := c0; i < n && i < f.a.Rows; i++ {
		for j := i; j < n; j++ {
			out.Set(i-c0, j-c0, f.a.Data[j*f.a.Stride+i])
		}
	}
	return out
}
