package mat

import "math"

// CSVD holds a (thin) singular value decomposition A = U·diag(S)·Vᴴ of an
// m×n complex matrix with m ≥ n: U is m×n with orthonormal columns, V is
// n×n unitary, and S holds the singular values in descending order.
type CSVD struct {
	U *CMatrix
	S []float64
	V *CMatrix
}

// CSVDecompose computes the thin SVD of a complex matrix using one-sided
// Jacobi rotations on packed column-major panels (see jacobiSweepsPacked).
// One-sided Jacobi is chosen for its simplicity and high relative accuracy;
// the matrices in this codebase are small (port counts up to ~100). For
// m < n the decomposition is computed on the conjugate transpose and
// swapped back. Allocation-sensitive callers should hold a CSVDWorkspace
// and use CSVDecomposeInto directly.
func CSVDecompose(a *CMatrix) *CSVD {
	// The workspace is discarded, so the returned matrices are exclusively
	// owned by the caller.
	return CSVDecomposeInto(&CSVDWorkspace{}, a)
}

// SingularValues returns just the singular values of a complex matrix in
// descending order.
func SingularValues(a *CMatrix) []float64 {
	return CSVDecompose(a).S
}

// MaxSingularValue returns the spectral norm ‖a‖₂ of a complex matrix.
func MaxSingularValue(a *CMatrix) float64 {
	s := SingularValues(a)
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

// MaxSingularValuePower estimates the largest singular value of a using
// power iteration on AᴴA. v0 (length a.Cols) provides a warm start and is
// overwritten with the converged right singular vector; pass nil for a
// default start. This is the fast path used by frequency sweeps, where the
// singular vector changes slowly from one frequency to the next.
func MaxSingularValuePower(a *CMatrix, v0 []complex128, tol float64, maxIter int) (float64, []complex128) {
	n := a.Cols
	if n == 0 {
		return 0, nil
	}
	v := v0
	if v == nil || len(v) != n {
		v = make([]complex128, n)
		for i := range v {
			// Deterministic, not axis-aligned start.
			v[i] = complex(1+0.01*float64(i%7), 0.005*float64(i%5))
		}
	}
	normalize := func(x []complex128) float64 {
		nn := CNorm2(x)
		if nn == 0 {
			return 0
		}
		inv := complex(1/nn, 0)
		for i := range x {
			x[i] *= inv
		}
		return nn
	}
	normalize(v)
	sigma := 0.0
	for it := 0; it < maxIter; it++ {
		av := a.MulVec(v)
		w := a.MulVecH(av) // AᴴA v
		lambda := normalize(w)
		copy(v, w)
		newSigma := math.Sqrt(lambda)
		if math.Abs(newSigma-sigma) <= tol*math.Max(1, newSigma) {
			sigma = newSigma
			break
		}
		sigma = newSigma
	}
	return sigma, v
}

// SingularValuesOnly computes the singular values of a complex matrix by
// one-sided Jacobi without accumulating the singular vectors — roughly a
// third cheaper than CSVDecompose. Used by passivity sweeps, which need
// exact σ_max at many frequencies (iterative estimators stall on the
// near-degenerate singular clusters that PDN scattering matrices exhibit
// at the passivity boundary) but no vectors.
func SingularValuesOnly(a *CMatrix) []float64 {
	return SingularValuesInto(&CSVDWorkspace{}, a, nil)
}

// SVD holds a thin real singular value decomposition A = U·diag(S)·Vᵀ.
type SVD struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVDecompose computes the thin SVD of a real matrix by lifting to the
// complex one-sided Jacobi kernel. All intermediate rotations stay real in
// exact arithmetic; residual imaginary parts are discarded.
func SVDecompose(a *Matrix) *SVD {
	cs := CSVDecompose(RealToComplex(a))
	return &SVD{U: cs.U.Real(), S: cs.S, V: cs.V.Real()}
}
