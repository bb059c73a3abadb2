// Package mor implements projection-based model order reduction by
// balanced truncation — the "classical" reduction family ([6], [7] in the
// paper's introduction) that the black-box identification flow is usually
// contrasted with. The library uses it as a baseline: reduce a high-order
// (very accurate) Vector-Fitting model to the paper's working order and
// compare against a direct low-order fit, in the scattering norm and under
// the nominal PDN termination network.
package mor

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/rational"
	"repro/internal/statespace"
)

// Reduced is the outcome of a balanced truncation.
type Reduced struct {
	// System is the reduced state-space model of the requested order.
	System *statespace.System
	// Hankel lists every Hankel singular value of the original system,
	// descending.
	Hankel []float64
	// Bound is the a-priori H∞ error bound 2·Σ_{k>r} σ_k of balanced
	// truncation.
	Bound float64
	// Order is the retained order (may be smaller than requested when the
	// system is numerically of lower rank).
	Order int
}

// ErrUnstable reports a system whose Gramians do not exist.
var ErrUnstable = errors.New("mor: balanced truncation needs an asymptotically stable system")

// BalancedTruncation reduces a stable system to the given order with the
// square-root algorithm: Cholesky factors of the two Gramians, an SVD of
// their product, and the Petrov–Galerkin projection built from its leading
// singular vectors.
func BalancedTruncation(sys *statespace.System, order int) (*Reduced, error) {
	n := sys.Order()
	if order <= 0 {
		return nil, fmt.Errorf("mor: order must be positive, got %d", order)
	}
	if order > n {
		return nil, fmt.Errorf("mor: order %d exceeds system order %d", order, n)
	}
	if ok, err := sys.IsStable(0); err != nil {
		return nil, err
	} else if !ok {
		return nil, ErrUnstable
	}
	p, err := sys.Gramian()
	if err != nil {
		return nil, fmt.Errorf("%w: controllability Gramian: %v", ErrUnstable, err)
	}
	q, err := mat.ObservabilityGramian(sys.A, sys.C)
	if err != nil {
		return nil, fmt.Errorf("%w: observability Gramian: %v", ErrUnstable, err)
	}
	lp, _, err := mat.CholFactorRegularized(p)
	if err != nil {
		return nil, fmt.Errorf("mor: controllability Gramian not PSD: %w", err)
	}
	lq, _, err := mat.CholFactorRegularized(q)
	if err != nil {
		return nil, fmt.Errorf("mor: observability Gramian not PSD: %w", err)
	}
	// M = Lqᵀ·Lp, SVD M = U·Σ·Vᵀ; Hankel values are Σ.
	m := lq.L().T().Mul(lp.L())
	svd := mat.SVDecompose(m)
	hankel := append([]float64(nil), svd.S...)

	// Clamp the order at the numerical rank so Σ^{-1/2} stays finite.
	r := order
	tol := 1e-13 * hankel[0]
	for r > 0 && hankel[r-1] <= tol {
		r--
	}
	if r == 0 {
		return nil, fmt.Errorf("mor: system is numerically zero (σ₁ = %g)", hankel[0])
	}

	// Projection bases T1 = Lp·V_r·Σ_r^{-1/2}, W1 = Lq·U_r·Σ_r^{-1/2};
	// then W1ᵀ·T1 = I.
	t1 := mat.NewMatrix(n, r)
	w1 := mat.NewMatrix(n, r)
	lpl, lql := lp.L(), lq.L()
	for j := 0; j < r; j++ {
		is := 1 / math.Sqrt(hankel[j])
		for i := 0; i < n; i++ {
			var tv, wv float64
			for k := 0; k < n; k++ {
				tv += lpl.At(i, k) * svd.V.At(k, j)
				wv += lql.At(i, k) * svd.U.At(k, j)
			}
			t1.Set(i, j, tv*is)
			w1.Set(i, j, wv*is)
		}
	}
	ar := w1.T().Mul(sys.A.Mul(t1))
	br := w1.T().Mul(sys.B)
	cr := sys.C.Mul(t1)
	red, err := statespace.New(ar, br, cr, sys.D.Clone())
	if err != nil {
		return nil, err
	}
	bound := 0.0
	for k := r; k < len(hankel); k++ {
		bound += 2 * hankel[k]
	}
	return &Reduced{System: red, Hankel: hankel, Bound: bound, Order: r}, nil
}

// ToRational converts a state-space system with simple poles back to the
// pole-residue form used by the fitting and passivity machinery:
//
//	H(s) = Σ_k (C·v_k)(w_kᵀ·B)/(s − λ_k) + D,
//
// where v_k, w_k are right/left eigenvectors of A normalized to
// w_kᵀ·v_k = 1. Unstable or defective systems are rejected. The result can
// be fed directly into passivity checking and (weighted) enforcement,
// closing the "classical MOR + enforcement" alternative flow.
func ToRational(sys *statespace.System) (*rational.Model, error) {
	if sys.Inputs() != sys.Outputs() {
		return nil, fmt.Errorf("mor: ToRational needs a square system, got %d×%d", sys.Outputs(), sys.Inputs())
	}
	values, vecs, err := mat.EigenDecompose(sys.A)
	if err != nil {
		return nil, err
	}
	n := sys.Order()
	ports := sys.Outputs()
	// Left eigenvectors: rows of V⁻¹ satisfy w_kᵀ·A = λ_k·w_kᵀ with
	// w_kᵀ·v_k = 1 already normalized.
	vinv, err := mat.CInverse(vecs)
	if err != nil {
		return nil, fmt.Errorf("mor: eigenvector matrix singular (defective system?): %w", err)
	}
	// Order poles canonically: ascending |Im|, conjugate pairs adjacent
	// with the +Im member first; EigenDecompose already emits pairs
	// adjacent, so only per-pair ordering needs fixing.
	type entry struct {
		lambda complex128
		right  []complex128 // C·v_k (ports)
		left   []complex128 // w_kᵀ·B (ports)
	}
	entries := make([]entry, n)
	bc := mat.RealToComplex(sys.B)
	cc := mat.RealToComplex(sys.C)
	for k := 0; k < n; k++ {
		vk := vecs.Col(k)
		wk := vinv.Row(k)
		// Bᵀ·w_k: B is real, so the Hermitian product equals the transpose.
		entries[k] = entry{lambda: values[k], right: cc.MulVec(vk), left: bc.MulVecH(wk)}
	}
	poles := make([]complex128, 0, n)
	residues := make([]*mat.CMatrix, 0, n)
	for k := 0; k < n; {
		e := entries[k]
		if imag(e.lambda) == 0 {
			// A real pole of a real system has a real residue. The
			// imaginary part left by the complex eigenvectors is rounding,
			// which every kernel already ignores (CVector keeps Re R).
			r := outer(e.right, e.left, ports)
			for i, v := range r.Data {
				r.Data[i] = complex(real(v), 0)
			}
			poles = append(poles, e.lambda)
			residues = append(residues, r)
			k++
			continue
		}
		if k+1 >= n {
			return nil, fmt.Errorf("mor: dangling complex eigenvalue %v", e.lambda)
		}
		a, b := entries[k], entries[k+1]
		if imag(a.lambda) < 0 {
			a, b = b, a
		}
		if cmplx.Abs(a.lambda-cmplx.Conj(b.lambda)) > 1e-7*(1+cmplx.Abs(a.lambda)) {
			return nil, fmt.Errorf("mor: eigenvalues %v, %v are not a conjugate pair", a.lambda, b.lambda)
		}
		ra := outer(a.right, a.left, ports)
		poles = append(poles, a.lambda, cmplx.Conj(a.lambda))
		residues = append(residues, ra, conjMat(ra))
		k += 2
	}
	return rational.New(poles, residues, sys.D.Clone())
}

// outer returns the rank-one residue matrix right·leftᵀ.
func outer(right, left []complex128, p int) *mat.CMatrix {
	m := mat.NewCMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			m.Set(i, j, right[i]*left[j])
		}
	}
	return m
}

func conjMat(a *mat.CMatrix) *mat.CMatrix {
	out := mat.NewCMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = cmplx.Conj(a.Data[i])
	}
	return out
}
