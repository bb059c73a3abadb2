package mat

import (
	"errors"
	"math"
)

// ErrNotPD is returned when a Cholesky factorization is attempted on a
// matrix that is not (numerically) positive definite.
var ErrNotPD = errors.New("mat: matrix is not positive definite")

// Cholesky holds a lower-triangular Cholesky factor: A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// CholFactor computes the Cholesky factorization of the symmetric positive
// definite matrix a. Only the lower triangle of a is referenced.
func CholFactor(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("mat: CholFactor of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		// The inner products run over contiguous row prefixes of L in
		// ascending k, the summation order of the textbook loop.
		lj := l.Row(j)[:j]
		d := a.At(j, j)
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPD
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			li := l.Row(i)[:j+1]
			s := a.At(i, j)
			for k, v := range lj {
				s -= li[k] * v
			}
			li[j] = s / ljj
		}
	}
	return &Cholesky{l: l}, nil
}

// CholFactorRegularized attempts a Cholesky factorization, adding an
// increasing diagonal shift (starting at eps·trace/n) until the matrix
// becomes positive definite. It returns the factor and the shift used.
// This is used for nearly-singular Gramians and dual QP matrices.
func CholFactorRegularized(a *Matrix) (*Cholesky, float64, error) {
	n := a.Rows
	if n == 0 {
		return &Cholesky{l: NewMatrix(0, 0)}, 0, nil
	}
	if c, err := CholFactor(a); err == nil {
		return c, 0, nil
	}
	scale := a.Trace() / float64(n)
	if scale <= 0 {
		scale = a.MaxAbs()
	}
	if scale == 0 {
		scale = 1
	}
	shift := 1e-14 * scale
	work := a.Clone()
	for iter := 0; iter < 40; iter++ {
		for i := 0; i < n; i++ {
			work.Set(i, i, a.At(i, i)+shift)
		}
		if c, err := CholFactor(work); err == nil {
			return c, shift, nil
		}
		shift *= 10
	}
	return nil, shift, ErrNotPD
}

// L returns the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l }

// SolveVec solves A·x = b using the factorization.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, c.l.Rows), b)
}

// SolveVecInto solves A·x = b into the caller-owned dst (allocation-free).
// dst may alias b; it must have length n.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n || len(dst) != n {
		panic("mat: Cholesky SolveVecInto length mismatch")
	}
	// L·y = b (y stored in dst; dst[j] for j < i is already y_j, so b and
	// dst may share storage).
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l.Row(i)
		for j := 0; j < i; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	// Lᵀ·x = y
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * dst[j]
		}
		dst[i] = s / c.l.At(i, i)
	}
	return dst
}

// Solve solves A·X = B.
func (c *Cholesky) Solve(b *Matrix) *Matrix {
	n := c.l.Rows
	if b.Rows != n {
		panic("mat: Cholesky Solve shape mismatch")
	}
	x := NewMatrix(n, b.Cols)
	col := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		sol := c.SolveVec(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}
