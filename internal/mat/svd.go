package mat

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

// MaxSingularValue returns the spectral norm ‖a‖₂ of a complex matrix
// (see MaxSingularValueInto; this wrapper allocates a fresh workspace).
func MaxSingularValue(a *CMatrix) float64 {
	return MaxSingularValueInto(&CSVDWorkspace{}, a)
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
