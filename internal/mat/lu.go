package mat

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when a factorization encounters an (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// LUFactor computes the LU factorization of the square matrix a with partial
// pivoting. The input is not modified.
func LUFactor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("mat: LUFactor of non-square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below diagonal.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Row(k)
			rp := lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Row(i)
			rk := lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// SolveVec solves A·x = b, returning x.
func (f *LU) SolveVec(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("mat: LU SolveVec length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// Solve solves A·X = B column-by-column, returning X.
func (f *LU) Solve(b *Matrix) *Matrix {
	n := f.lu.Rows
	if b.Rows != n {
		panic("mat: LU Solve shape mismatch")
	}
	x := NewMatrix(n, b.Cols)
	col := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		sol := f.SolveVec(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}

// Inverse returns A⁻¹ for the square matrix a.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.Rows)), nil
}

// SolveLin solves the linear system a·x = b for a single right-hand side.
func SolveLin(a *Matrix, b []float64) ([]float64, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// CLU holds a complex LU factorization with partial pivoting.
type CLU struct {
	lu  *CMatrix
	piv []int
}

// CLUFactor computes the LU factorization of the square complex matrix a.
func CLUFactor(a *CMatrix) (*CLU, error) {
	if a.Rows != a.Cols {
		panic("mat: CLUFactor of non-square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		mx := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Row(k)
			rp := lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Row(i)
			rk := lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &CLU{lu: lu, piv: piv}, nil
}

// SolveVec solves A·x = b for a complex right-hand side.
func (f *CLU) SolveVec(b []complex128) []complex128 {
	n := f.lu.Rows
	if len(b) != n {
		panic("mat: CLU SolveVec length mismatch")
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// Solve solves A·X = B for complex matrices.
func (f *CLU) Solve(b *CMatrix) *CMatrix {
	n := f.lu.Rows
	if b.Rows != n {
		panic("mat: CLU Solve shape mismatch")
	}
	x := NewCMatrix(n, b.Cols)
	col := make([]complex128, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		sol := f.SolveVec(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}

// CInverse returns A⁻¹ for a square complex matrix.
func CInverse(a *CMatrix) (*CMatrix, error) {
	f, err := CLUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(CIdentity(a.Rows)), nil
}

// CSolveLin solves a·x = b for a single complex right-hand side.
func CSolveLin(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := CLUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}
