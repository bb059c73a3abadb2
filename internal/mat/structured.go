package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file implements the structured diagonal-plus-low-rank kernel behind
// the contour counter of the large-N certification path: a factored
// representation of
//
//	zI − M,   M = Λ + U·Vᵀ,
//
// where Λ is real (block-)diagonal — 1×1 blocks and 2×2 rotation-like
// blocks [[d₁, e], [−e, d₂]] — and U, V are real N×p with p ≪ N. The
// level-γ Hamiltonian of a pole-residue macromodel has exactly this shape
// (Λ = blkdiag(A, −Aᵀ) in the poles, p = 2·ports), so the dense O(N³)
// determinant of the contour counter collapses to the determinant lemma
//
//	det(zI − M) = det(zI − Λ) · det(C),   C = I − Vᵀ(zI−Λ)⁻¹U,
//
// with C the p×p capacitance matrix: one determinant evaluation costs an
// O(N·p²) sweep plus a p×p complex LU. The counter's proximity alarm reads
// tr((zI − M)⁻¹) through the Woodbury identity from the same factors.
// Memory is O(N·p) — the dense matrix is never materialized.

// DetBackend is the determinant kernel a ContourEvaluator walks contours
// with: the principal argument of det(zI − M) plus a spectrum-proximity
// alarm (an upper bound on σ_min(zI − M)) per node, and a rigorous
// eigenvalue magnitude bound for sizing rectangles. DenseShifted is the
// O(N³) oracle implementation; StructuredShifted the O(N·p²) fast path.
type DetBackend interface {
	// Dim returns the matrix dimension N.
	Dim() int
	// EigenBound returns a rigorous bound B with |λ| ≤ B for every
	// eigenvalue of M.
	EigenBound() float64
	// DetPhasePivot returns the principal argument of det(zI − M) in
	// (−π, π] and an upper bound on σ_min(zI − M) (the quadrature's
	// aliasing alarm). ErrSingular reports that z is (numerically) an
	// eigenvalue.
	DetPhasePivot(z complex128) (float64, float64, error)
}

// StructuredShifted is the factored diagonal-plus-low-rank representation
// zI − (Λ + U·Vᵀ). The block-diagonal Λ is encoded by two parallel slices:
// diag holds the diagonal, and a nonzero skew[k] = e declares the 2×2
// block [[diag[k], e], [−e, diag[k+1]]] on rows k, k+1 (skew[k+1] must
// then be zero; real-pole rows keep skew[k] = 0). U and V are N×p.
//
// The factorization at one shift z (X, the capacitance LU, and the
// determinant's phase/log-magnitude) is cached and reused while z is
// unchanged. Not safe for concurrent use.
type StructuredShifted struct {
	diag, skew []float64
	u, v       *Matrix

	// Factorization cache at shift z (valid flags it).
	z      complex128
	valid  bool
	x      []complex128 // N×p row-major: X = (zI−Λ)⁻¹U
	capm   []complex128 // p×p row-major: LU factors of C = I − VᵀX
	capPiv []int        // capacitance LU row pivots
	phase  float64      // principal argument of det(zI − M)
	logAbs float64      // log|det(zI − M)|

	w []complex128 // p-vector capacitance-solve scratch
	y []complex128 // N×p row-major scratch: Y = (zI−Λ)⁻¹X for the trace alarm
}

// NewStructuredShifted builds the factored representation from the block
// encoding (see StructuredShifted) and the low-rank factors. The slices
// and matrices are retained, not copied. It panics on shape or block-
// encoding violations.
func NewStructuredShifted(diag, skew []float64, u, v *Matrix) *StructuredShifted {
	n := len(diag)
	if len(skew) != n {
		panic("mat: NewStructuredShifted diag/skew length mismatch")
	}
	if u.Rows != n || v.Rows != n || u.Cols != v.Cols {
		panic(fmt.Sprintf("mat: NewStructuredShifted factor shapes U %dx%d, V %dx%d vs N=%d",
			u.Rows, u.Cols, v.Rows, v.Cols, n))
	}
	for k := 0; k < n; {
		if skew[k] == 0 {
			k++
			continue
		}
		if k+1 >= n || skew[k+1] != 0 {
			panic("mat: NewStructuredShifted invalid 2x2 block encoding")
		}
		k += 2
	}
	p := u.Cols
	return &StructuredShifted{
		diag:   diag,
		skew:   skew,
		u:      u,
		v:      v,
		x:      make([]complex128, n*p),
		capm:   make([]complex128, p*p),
		capPiv: make([]int, p),
		w:      make([]complex128, p),
		y:      make([]complex128, n*p),
	}
}

// Dim returns the matrix dimension N.
func (s *StructuredShifted) Dim() int { return len(s.diag) }

// EigenBound returns min over the ∞- and 1-norm triangle-inequality bounds
// ‖Λ‖ + ‖U·Vᵀ‖: every eigenvalue of M satisfies |λ| ≤ ‖M‖ for any induced
// norm, |（UVᵀ)|'s row i absolute sum is at most Σ_k |U(i,k)|·‖V(:,k)‖₁,
// and symmetrically for columns. O(N·p), no materialization.
func (s *StructuredShifted) EigenBound() float64 {
	n, p := len(s.diag), s.u.Cols
	colU := make([]float64, p) // ‖U(:,k)‖₁
	colV := make([]float64, p) // ‖V(:,k)‖₁
	for k := 0; k < n; k++ {
		ur, vr := s.u.Row(k), s.v.Row(k)
		for j := 0; j < p; j++ {
			colU[j] += math.Abs(ur[j])
			colV[j] += math.Abs(vr[j])
		}
	}
	lamAbs := func(k int) float64 { // abs row sum of Λ's row k == col sum (blocks are [[d1,e],[−e,d2]])
		a := math.Abs(s.diag[k])
		if s.skew[k] != 0 {
			a += math.Abs(s.skew[k])
		} else if k > 0 && s.skew[k-1] != 0 {
			a += math.Abs(s.skew[k-1])
		}
		return a
	}
	inf, one := 0.0, 0.0
	for i := 0; i < n; i++ {
		ur, vr := s.u.Row(i), s.v.Row(i)
		ri, ci := lamAbs(i), lamAbs(i)
		for k := 0; k < p; k++ {
			ri += math.Abs(ur[k]) * colV[k]
			ci += math.Abs(vr[k]) * colU[k]
		}
		if ri > inf {
			inf = ri
		}
		if ci > one {
			one = ci
		}
	}
	return math.Min(inf, one)
}

// factor computes (and caches) the shift-z factorization: X = (zI−Λ)⁻¹U,
// the LU of the capacitance C = I − VᵀX, and the accumulated phase and
// log-magnitude of det(zI − M) = det(zI − Λ)·det(C).
func (s *StructuredShifted) factor(z complex128) error {
	if s.valid && z == s.z {
		return nil
	}
	s.valid = false
	n, p := len(s.diag), s.u.Cols
	phase, logAbs := 0.0, 0.0
	for k := 0; k < n; {
		if s.skew[k] == 0 {
			f := z - complex(s.diag[k], 0)
			if f == 0 {
				return ErrSingular
			}
			phase += cmplx.Phase(f)
			logAbs += math.Log(cmplx.Abs(f))
			ur := s.u.Row(k)
			xr := s.x[k*p : (k+1)*p]
			for j := 0; j < p; j++ {
				xr[j] = complex(ur[j], 0) / f
			}
			k++
			continue
		}
		// 2×2 block: zI − [[d1,e],[−e,d2]] = [[z−d1, −e],[e, z−d2]],
		// det = (z−d1)(z−d2) + e², closed-form inverse.
		z1 := z - complex(s.diag[k], 0)
		z2 := z - complex(s.diag[k+1], 0)
		e := complex(s.skew[k], 0)
		det := z1*z2 + e*e
		if det == 0 {
			return ErrSingular
		}
		phase += cmplx.Phase(det)
		logAbs += math.Log(cmplx.Abs(det))
		u1, u2 := s.u.Row(k), s.u.Row(k+1)
		x1 := s.x[k*p : (k+1)*p]
		x2 := s.x[(k+1)*p : (k+2)*p]
		for j := 0; j < p; j++ {
			b1, b2 := complex(u1[j], 0), complex(u2[j], 0)
			x1[j] = (z2*b1 + e*b2) / det
			x2[j] = (z1*b2 - e*b1) / det
		}
		k += 2
	}
	// Capacitance C = I − VᵀX.
	for i := 0; i < p; i++ {
		row := s.capm[i*p : (i+1)*p]
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
	}
	for k := 0; k < n; k++ {
		vr := s.v.Row(k)
		xr := s.x[k*p : (k+1)*p]
		for i := 0; i < p; i++ {
			if vr[i] == 0 {
				continue
			}
			cv := complex(vr[i], 0)
			row := s.capm[i*p : (i+1)*p]
			for j := 0; j < p; j++ {
				row[j] -= cv * xr[j]
			}
		}
	}
	// In-place LU of C with partial pivoting; row swaps flip the sign.
	for c := 0; c < p; c++ {
		pr, mx := c, cmplx.Abs(s.capm[c*p+c])
		for i := c + 1; i < p; i++ {
			if ab := cmplx.Abs(s.capm[i*p+c]); ab > mx {
				mx, pr = ab, i
			}
		}
		if mx == 0 || math.IsNaN(mx) {
			return ErrSingular
		}
		s.capPiv[c] = pr
		if pr != c {
			rc, rp := s.capm[c*p:(c+1)*p], s.capm[pr*p:(pr+1)*p]
			for j := 0; j < p; j++ {
				rc[j], rp[j] = rp[j], rc[j]
			}
			phase += math.Pi
		}
		pivot := s.capm[c*p+c]
		phase += cmplx.Phase(pivot)
		logAbs += math.Log(mx)
		for i := c + 1; i < p; i++ {
			m := s.capm[i*p+c] / pivot
			s.capm[i*p+c] = m
			if m == 0 {
				continue
			}
			ri, rc := s.capm[i*p:(i+1)*p], s.capm[c*p:(c+1)*p]
			for j := c + 1; j < p; j++ {
				ri[j] -= m * rc[j]
			}
		}
	}
	if math.IsInf(logAbs, 0) || math.IsNaN(logAbs) || math.IsNaN(phase) {
		return ErrSingular
	}
	s.z, s.valid = z, true
	s.phase, s.logAbs = wrapPi(phase), logAbs
	return nil
}

// capSolve solves C·w = w in place against the cached capacitance LU.
func (s *StructuredShifted) capSolve(w []complex128) {
	p := s.u.Cols
	for c := 0; c < p; c++ {
		if pr := s.capPiv[c]; pr != c {
			w[c], w[pr] = w[pr], w[c]
		}
		for i := c + 1; i < p; i++ {
			w[i] -= s.capm[i*p+c] * w[c]
		}
	}
	for c := p - 1; c >= 0; c-- {
		for j := c + 1; j < p; j++ {
			w[c] -= s.capm[c*p+j] * w[j]
		}
		w[c] /= s.capm[c*p+c]
	}
}

// LogDetPhase returns the principal argument of det(zI − M) in (−π, π]
// together with log|det(zI − M)| — one O(N·p²) sweep plus a p×p complex LU
// via the determinant lemma. ErrSingular reports that z is (numerically)
// an eigenvalue of M or of Λ.
func (s *StructuredShifted) LogDetPhase(z complex128) (float64, float64, error) {
	if err := s.factor(z); err != nil {
		return 0, 0, err
	}
	return s.phase, s.logAbs, nil
}

// DetPhasePivot implements DetBackend: the determinant phase from
// LogDetPhase plus the proximity alarm N/|tr((zI−M)⁻¹)|. The trace is the
// exact derivative of log det(zI − M), so the alarm makes the quadrature's
// chord guard chord·N ≤ maxStep·piv collapse to the tight first-order
// bound chord·|tr| ≤ maxStep — node demand tracks the actual phase speed
// instead of the worst case N/dist(z, spec), which is what lets contour
// counts stay affordable at large N. It is still a valid σ_min upper bound
// (|tr| ≤ Σᵢ 1/|z−λᵢ| ≤ N/dist(z, spec) and σ_min(zI−M) ≤ |z−λᵢ|). The
// trace reuses the cached factorization via the Woodbury identity
// tr((zI−M)⁻¹) = tr(R) + tr(C⁻¹·Vᵀ·R·X) with R = (zI−Λ)⁻¹ — one extra
// O(N·p²) sweep per node.
func (s *StructuredShifted) DetPhasePivot(z complex128) (float64, float64, error) {
	if err := s.factor(z); err != nil {
		return 0, 0, err
	}
	n, p := len(s.diag), s.u.Cols
	var tr complex128
	// tr(R) and Y = R·X, block by block (the closed-form block inverses of
	// factor).
	for k := 0; k < n; {
		if s.skew[k] == 0 {
			f := z - complex(s.diag[k], 0)
			tr += 1 / f
			xr, yr := s.x[k*p:(k+1)*p], s.y[k*p:(k+1)*p]
			for j := 0; j < p; j++ {
				yr[j] = xr[j] / f
			}
			k++
			continue
		}
		z1 := z - complex(s.diag[k], 0)
		z2 := z - complex(s.diag[k+1], 0)
		e := complex(s.skew[k], 0)
		det := z1*z2 + e*e
		tr += (z1 + z2) / det
		x1, x2 := s.x[k*p:(k+1)*p], s.x[(k+1)*p:(k+2)*p]
		y1, y2 := s.y[k*p:(k+1)*p], s.y[(k+1)*p:(k+2)*p]
		for j := 0; j < p; j++ {
			y1[j] = (z2*x1[j] + e*x2[j]) / det
			y2[j] = (z1*x2[j] - e*x1[j]) / det
		}
		k += 2
	}
	// tr(C⁻¹·G) with G = Vᵀ·Y, one capacitance solve per column.
	for b := 0; b < p; b++ {
		for i := 0; i < p; i++ {
			s.w[i] = 0
		}
		for k := 0; k < n; k++ {
			vr := s.v.Row(k)
			yb := s.y[k*p+b]
			if yb == 0 {
				continue
			}
			for i := 0; i < p; i++ {
				s.w[i] += complex(vr[i], 0) * yb
			}
		}
		s.capSolve(s.w)
		tr += s.w[b]
	}
	trAbs := cmplx.Abs(tr)
	if math.IsNaN(trAbs) || math.IsInf(trAbs, 0) {
		return 0, 0, ErrSingular
	}
	if trAbs == 0 {
		// Exact residue cancellation: no proximity information. Fall back to
		// a neutral alarm so the |Δφ| ≤ maxStep check still governs.
		return s.phase, s.EigenBound(), nil
	}
	return s.phase, float64(n) / trAbs, nil
}

// Materialize assembles the dense N×N matrix M = Λ + U·Vᵀ. It exists for
// oracle cross-validation (tests, fuzzing) and costs the O(N²·p) work and
// O(N²) memory the factored representation avoids.
func (s *StructuredShifted) Materialize() *Matrix {
	n, p := len(s.diag), s.u.Cols
	m := NewMatrix(n, n)
	for k := 0; k < n; {
		if s.skew[k] == 0 {
			m.Set(k, k, s.diag[k])
			k++
			continue
		}
		m.Set(k, k, s.diag[k])
		m.Set(k, k+1, s.skew[k])
		m.Set(k+1, k, -s.skew[k])
		m.Set(k+1, k+1, s.diag[k+1])
		k += 2
	}
	for i := 0; i < n; i++ {
		ur := s.u.Row(i)
		mr := m.Row(i)
		for k := 0; k < p; k++ {
			if ur[k] == 0 {
				continue
			}
			uk := ur[k]
			for j := 0; j < n; j++ {
				mr[j] += uk * s.v.At(j, k)
			}
		}
	}
	return m
}
