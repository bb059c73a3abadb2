package mat

import (
	"math"
	"math/cmplx"
)

// CSVDWorkspace holds the reusable buffers of the SVD kernels: for the
// one-sided Jacobi kernels the packed column-major working copy, the
// right-rotation accumulator and the output matrices; for the σ_max kernel
// the Gram matrix and its tridiagonal form. A workspace amortizes every
// allocation of CSVDecomposeInto and MaxSingularValueInto (and of the
// tests' values-only Jacobi oracle) across calls — after the first call at
// a given size the kernels are allocation-free.
//
// Ownership: the CSVD returned by CSVDecomposeInto points into
// workspace-owned storage and is valid only until the next call on the
// same workspace. A workspace is NOT safe for concurrent use; give each
// worker its own (see the per-worker pools in internal/passivity).
type CSVDWorkspace struct {
	w   []complex128 // packed column-major working copy (m×n panels)
	v   []complex128 // packed column-major right rotations (n×n)
	s   []float64    // unsorted singular values
	ss  []float64    // singular values in descending order
	idx []int        // descending sort permutation
	u   *CMatrix     // output U, reused across calls
	vm  *CMatrix     // output V, reused across calls
	out CSVD         // returned header, reused across calls

	g      []complex128 // σ_max kernel: packed lower Gram matrix (k×k)
	p      []complex128 // σ_max kernel: Householder update vector
	d, e2  []float64    // σ_max kernel: tridiagonal diagonal, squared off-diagonal
	scaled *CMatrix     // σ_max kernel: power-of-two rescaled input
}

func growC(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// reuseCMatrix resizes m to r×c reusing its backing array when possible,
// zero-filling the result.
func reuseCMatrix(m *CMatrix, r, c int) *CMatrix {
	if m == nil || cap(m.Data) < r*c {
		return NewCMatrix(r, c)
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:r*c]
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// packColumns copies a into dst as packed column-major panels (column j at
// dst[j*m:(j+1)*m]). With conj=true it packs the conjugate transpose
// instead, reading a's rows contiguously.
func packColumns(dst []complex128, a *CMatrix, conj bool) {
	if conj {
		// Column j of aᴴ (length a.Cols) is the conjugated row j of a.
		for j := 0; j < a.Rows; j++ {
			row := a.Data[j*a.Cols : (j+1)*a.Cols]
			col := dst[j*a.Cols : (j+1)*a.Cols]
			for i, v := range row {
				col[i] = cmplx.Conj(v)
			}
		}
		return
	}
	m, n := a.Rows, a.Cols
	for j := 0; j < n; j++ {
		col := dst[j*m : (j+1)*m]
		for i := 0; i < m; i++ {
			col[i] = a.Data[i*n+j]
		}
	}
}

// jacobiSweepsPacked runs the one-sided Jacobi iteration on the packed
// column-major working copy w (m×n). Processing column pairs on packed
// panels keeps every Gram accumulation and rotation on contiguous memory —
// the row-major formulation walks both columns with stride n, which at
// P ≳ 16 ports misses cache on every element. v, when non-nil, must hold
// the n×n identity in packed column-major form and accumulates the right
// rotations. The pair order and per-pair arithmetic match the historical
// strided kernel exactly, so results are bitwise reproducible; tiling the
// pair loop itself would reorder the rotations and change the rounding.
func jacobiSweepsPacked(w, v []complex128, m, n int) {
	const tol = 1e-14
	for sweep := 0; sweep < 60; sweep++ {
		off := 0
		for p := 0; p < n-1; p++ {
			wp := w[p*m : (p+1)*m]
			for q := p + 1; q < n; q++ {
				wq := w[q*m : (q+1)*m]
				// Gram entries of columns p,q.
				var app, aqq float64
				var apq complex128
				for i, cp := range wp {
					cq := wq[i]
					app += real(cp)*real(cp) + imag(cp)*imag(cp)
					aqq += real(cq)*real(cq) + imag(cq)*imag(cq)
					apq += cmplx.Conj(cp) * cq
				}
				mag := cmplx.Abs(apq)
				if mag <= tol*math.Sqrt(app*aqq) || mag == 0 {
					continue
				}
				off++
				// Phase so the effective off-diagonal entry is real, then a
				// real Jacobi rotation diagonalizing [[app,mag],[mag,aqq]].
				alpha := apq / complex(mag, 0)
				tau := (aqq - app) / (2 * mag)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				ca := complex(sn, 0) * cmplx.Conj(alpha)
				cb := complex(sn, 0) * alpha
				ccs := complex(cs, 0)
				for i, cp := range wp {
					cq := wq[i]
					wp[i] = ccs*cp - ca*cq
					wq[i] = cb*cp + ccs*cq
				}
				if v != nil {
					vp := v[p*n : (p+1)*n]
					vq := v[q*n : (q+1)*n]
					for i, cp := range vp {
						cq := vq[i]
						vp[i] = ccs*cp - ca*cq
						vq[i] = cb*cp + ccs*cq
					}
				}
			}
		}
		if off == 0 {
			break
		}
	}
}

// CSVDecomposeInto computes the thin SVD of a like CSVDecompose, reusing
// the workspace buffers. The returned CSVD points into workspace-owned
// storage: it is valid until the next CSVDecomposeInto call on ws. After
// one call at a given size, subsequent calls perform no allocations.
func CSVDecomposeInto(ws *CSVDWorkspace, a *CMatrix) *CSVD {
	m, n := a.Rows, a.Cols
	swap := false
	if m < n {
		m, n = n, m
		swap = true
	}
	ws.w = growC(ws.w, m*n)
	packColumns(ws.w, a, swap)
	ws.v = growC(ws.v, n*n)
	for i := range ws.v {
		ws.v[i] = 0
	}
	for j := 0; j < n; j++ {
		ws.v[j*n+j] = 1
	}
	jacobiSweepsPacked(ws.w, ws.v, m, n)

	// Singular values and descending order (insertion sort keeps this
	// allocation-free; port counts are small).
	ws.s = growF(ws.s, n)
	for j := 0; j < n; j++ {
		col := ws.w[j*m : (j+1)*m]
		norm := 0.0
		for _, c := range col {
			norm += real(c)*real(c) + imag(c)*imag(c)
		}
		ws.s[j] = math.Sqrt(norm)
	}
	ws.idx = growI(ws.idx, n)
	for i := range ws.idx {
		ws.idx[i] = i
	}
	for i := 1; i < n; i++ {
		j := ws.idx[i]
		k := i - 1
		for k >= 0 && ws.s[ws.idx[k]] < ws.s[j] {
			ws.idx[k+1] = ws.idx[k]
			k--
		}
		ws.idx[k+1] = j
	}

	// Normalized left vectors and sorted outputs, written directly from the
	// packed panels.
	ws.u = reuseCMatrix(ws.u, m, n)
	ws.vm = reuseCMatrix(ws.vm, n, n)
	ws.ss = growF(ws.ss, n)
	us, vs := ws.u, ws.vm
	for newj, oldj := range ws.idx[:n] {
		norm := ws.s[oldj]
		ws.ss[newj] = norm
		col := ws.w[oldj*m : (oldj+1)*m]
		if norm > 0 {
			inv := complex(1/norm, 0)
			for i := 0; i < m; i++ {
				us.Data[i*n+newj] = col[i] * inv
			}
		} else {
			// Zero singular value: leave the U column zero except a unit
			// pivot; callers that need a full basis re-orthogonalize.
			us.Data[(oldj%m)*n+newj] = 1
		}
		vcol := ws.v[oldj*n : (oldj+1)*n]
		for i := 0; i < n; i++ {
			vs.Data[i*n+newj] = vcol[i]
		}
	}
	ws.out.S = ws.ss[:n]
	if swap {
		ws.out.U, ws.out.V = vs, us
	} else {
		ws.out.U, ws.out.V = us, vs
	}
	return &ws.out
}
