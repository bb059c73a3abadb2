package mat

import (
	"math"
)

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R with Q m×m orthogonal (stored implicitly as Householder vectors)
// and R m×n upper trapezoidal.
type QR struct {
	qr   *Matrix   // Householder vectors below diagonal, R on/above
	beta []float64 // Householder scalar per reflector
}

// QRFactor computes the QR factorization of a (m ≥ n required for the
// least-squares solver; the factorization itself works for any shape with
// min(m,n) reflectors). The input is not modified.
func QRFactor(a *Matrix) *QR {
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	beta := make([]float64, min(m, n))
	householder(qr, beta, make([]float64, m), make([]float64, n))
	return &QR{qr: qr, beta: beta}
}

// QRTriangularize overwrites a with the triangular factor R of its
// Householder QR: R on and above the diagonal, zeros below. The reflectors
// are discarded. v and s are scratch of length ≥ a.Rows and ≥ a.Cols. R
// is bit for bit the R of QRFactor(a).
func QRTriangularize(a *Matrix, v, s []float64) {
	householder(a, nil, v, s)
	for i := 1; i < a.Rows; i++ {
		clear(a.Row(i)[:min(i, a.Cols)])
	}
}

// householder reduces a in place, column by column, with Householder
// reflectors: R on and above the diagonal, each reflector's normalized
// vector below it and its scalar in beta (zeroed by the caller, nil to
// drop the scalars; a zero column keeps beta 0). v and s are scratch of
// length ≥ a.Rows and ≥ a.Cols. Reflector j depends only on column j
// after reflectors 0..j−1, and every column is updated by the same
// per-column operation sequence, so columns never influence one another's
// arithmetic: that is what lets QR.ApplyQTMatrix reproduce this reduction
// for extra columns.
func householder(a *Matrix, beta, v, s []float64) {
	m, n := a.Rows, a.Cols
	data := a.Data
	for j := 0; j < min(m, n); j++ {
		// Build Householder vector for column j, rows j..m-1. The scan
		// works on the flat backing array with a strided index: the QR of
		// the Vector Fitting blocks is a hot loop of the library, so the
		// column norm uses a scaled two-pass sum instead of per-element
		// math.Hypot.
		amax := 0.0
		for i := j; i < m; i++ {
			if a := math.Abs(data[i*n+j]); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			continue
		}
		sumSq := 0.0
		for i := j; i < m; i++ {
			t := data[i*n+j] / amax
			sumSq += t * t
		}
		norm := amax * math.Sqrt(sumSq)
		x0 := data[j*n+j]
		alpha := norm
		if x0 > 0 {
			alpha = -norm
		}
		// v = x − alpha·e1, normalized so v[0] = 1.
		v0 := x0 - alpha
		v[j] = 1
		for i := j + 1; i < m; i++ {
			v[i] = data[i*n+j] / v0
		}
		bj := -v0 / alpha
		if beta != nil {
			beta[j] = bj
		}
		// Apply H = I − beta·v·vᵀ to the trailing columns: one pass per
		// row instead of per column to stay cache-friendly on the
		// row-major layout. sj[c] accumulates vᵀ·A[:, c].
		sj := s[:n-j]
		row := data[j*n : j*n+n]
		copy(sj, row[j:])
		for i := j + 1; i < m; i++ {
			ri := data[i*n+j : i*n+n]
			ri = ri[:len(sj)]
			vi := v[i]
			for c, x := range ri {
				sj[c] += vi * x
			}
		}
		for c := range sj {
			sj[c] *= bj
		}
		for c, x := range sj {
			row[j+c] -= x
		}
		for i := j + 1; i < m; i++ {
			ri := data[i*n+j : i*n+n]
			ri = ri[:len(sj)]
			vi := v[i]
			for c, x := range sj {
				ri[c] -= x * vi
			}
		}
		// Store the (normalized) Householder vector below the diagonal,
		// and the R value alpha on the diagonal.
		row[j] = alpha
		for i := j + 1; i < m; i++ {
			data[i*n+j] = v[i]
		}
	}
}

// R returns the upper-triangular factor as a square n×n matrix (top block).
func (f *QR) R() *Matrix {
	n := f.qr.Cols
	r := NewMatrix(n, n)
	limit := f.qr.Rows
	if n < limit {
		limit = n
	}
	for i := 0; i < limit; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// ApplyQT overwrites b (length m) with Qᵀ·b.
func (f *QR) ApplyQT(b []float64) {
	m := f.qr.Rows
	if len(b) != m {
		panic("mat: ApplyQT length mismatch")
	}
	for j := 0; j < len(f.beta); j++ {
		if f.beta[j] == 0 {
			continue
		}
		s := b[j]
		for i := j + 1; i < m; i++ {
			s += f.qr.At(i, j) * b[i]
		}
		s *= f.beta[j]
		b[j] -= s
		for i := j + 1; i < m; i++ {
			b[i] -= s * f.qr.At(i, j)
		}
	}
}

// ApplyQTMatrix overwrites b (as many rows as the factored matrix) with
// Qᵀ·b, running on every column of b exactly the operation sequence that
// QRFactor runs on a trailing column. For A = [A₁ A₂] and f = QRFactor(A₁),
// f.ApplyQTMatrix(A₂) therefore leaves A₂ bit for bit as the first
// A₁.Cols reflectors of QRFactor(A) leave it, however many times f is
// reused. s is scratch of length ≥ b.Cols.
func (f *QR) ApplyQTMatrix(b *Matrix, s []float64) {
	m, n, nb := f.qr.Rows, f.qr.Cols, b.Cols
	if b.Rows != m {
		panic("mat: ApplyQTMatrix row mismatch")
	}
	q, data := f.qr.Data, b.Data
	s = s[:nb]
	for j, bj := range f.beta {
		if bj == 0 {
			continue
		}
		row := data[j*nb : j*nb+nb]
		copy(s, row)
		for i := j + 1; i < m; i++ {
			ri := data[i*nb : i*nb+nb]
			ri = ri[:len(s)]
			vi := q[i*n+j]
			for c, x := range ri {
				s[c] += vi * x
			}
		}
		for c := range s {
			s[c] *= bj
		}
		row = row[:len(s)]
		for c, x := range s {
			row[c] -= x
		}
		for i := j + 1; i < m; i++ {
			ri := data[i*nb : i*nb+nb]
			ri = ri[:len(s)]
			vi := q[i*n+j]
			for c, x := range s {
				ri[c] -= x * vi
			}
		}
	}
}

// SolveVec solves the least-squares problem min‖A·x − b‖₂ for tall A.
func (f *QR) SolveVec(b []float64) ([]float64, error) {
	m, n := f.qr.Rows, f.qr.Cols
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
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.qr.At(i, i)
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
	limit := f.qr.Rows
	for i := c0; i < n && i < limit; i++ {
		for j := i; j < n; j++ {
			out.Set(i-c0, j-c0, f.qr.At(i, j))
		}
	}
	return out
}
