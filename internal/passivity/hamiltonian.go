// Package passivity implements passivity assessment and enforcement for
// scattering-domain pole-residue macromodels: the Hamiltonian imaginary-
// eigenvalue test and adaptive singular-value sweeps for detection, and the
// iterative residue-perturbation scheme of the paper (eqs. 8–10) — a
// sequence of convex QPs minimizing a Gramian-weighted ‖δS‖² subject to
// linearized singular-value constraints — for enforcement. The cost
// Gramian is pluggable: the standard controllability Gramian gives the
// classical L2 scheme, while the sensitivity-weighted Gramian P^Ξ,11 from
// internal/core gives the paper's method.
package passivity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mat"
	"repro/internal/rational"
)

// ErrAsymptoticViolation is returned when σ_max(D) ≥ 1: perturbing the
// residues (C matrix) cannot repair a direct-coupling violation.
var ErrAsymptoticViolation = errors.New("passivity: σmax(D) ≥ 1, not repairable by residue perturbation")

// HamiltonianMatrixLevel builds the level-γ Hamiltonian (Bruinsma–
// Steinbuch): with R = DᵀD − γ²I and Q = DDᵀ − γ²I,
//
//	M_γ = | A − B·R⁻¹·Dᵀ·C       −B·R⁻¹·Bᵀ          |
//	      | γ²·Cᵀ·Q⁻¹·C          −Aᵀ + Cᵀ·D·R⁻¹·Bᵀ  |
//
// so that σ(S(jω₀)) = γ iff jω₀ is an eigenvalue of M_γ. γ = 1 recovers
// the bounded-real passivity test (Grivet-Talocia 2004); the certifier
// uses γ < 1 to verify that a reduced model stays below a level tightened
// by the truncated far-pole tail. γ must not be a singular value of D.
func HamiltonianMatrixLevel(a, b, c, d *mat.Matrix, gamma float64) (*mat.Matrix, error) {
	n := a.Rows
	g2 := gamma * gamma
	r := d.T().Mul(d)
	q := d.Mul(d.T())
	for i := 0; i < r.Rows; i++ {
		r.Set(i, i, r.At(i, i)-g2)
	}
	for i := 0; i < q.Rows; i++ {
		q.Set(i, i, q.At(i, i)-g2)
	}
	rInv, err := mat.Inverse(r)
	if err != nil {
		return nil, fmt.Errorf("passivity: DᵀD−γ²I singular (σ(D)=γ=%g): %w", gamma, err)
	}
	qInv, err := mat.Inverse(q)
	if err != nil {
		return nil, fmt.Errorf("passivity: DDᵀ−γ²I singular (σ(D)=γ=%g): %w", gamma, err)
	}
	brd := b.Mul(rInv).Mul(d.T()) // B R⁻¹ Dᵀ
	m := mat.NewMatrix(2*n, 2*n)
	m.SetSlice(0, 0, a.Sub(brd.Mul(c)))
	m.SetSlice(0, n, b.Mul(rInv).Mul(b.T()).Scale(-1))
	m.SetSlice(n, 0, c.T().Mul(qInv).Mul(c).Scale(g2))
	m.SetSlice(n, n, a.T().Scale(-1).Add(c.T().Mul(d).Mul(rInv).Mul(b.T())))
	return m, nil
}

// HamiltonianFactorsLevel builds the level-γ Hamiltonian of a pole-residue
// model in the factored diagonal-plus-low-rank form M_γ = Λ + U·Vᵀ
// (mat.StructuredShifted), never materializing the dense 2nP×2nP matrix:
//
//	Λ  = blkdiag(A, −Aᵀ)            block-diagonal in the poles (A = I_P⊗A₁)
//	U  = | B   0  |                 2nP×2P
//	     | 0   Cᵀ |
//	Vᵀ = | −R⁻¹·Dᵀ·C    −R⁻¹·Bᵀ   |  2P×2nP, R = DᵀD−γ²I, Q = DDᵀ−γ²I
//	     | γ²·Q⁻¹·C      D·R⁻¹·Bᵀ |
//
// Every correction block of the Bruinsma–Steinbuch pencil factors through
// B or Cᵀ, so the rank is p = 2·P ≪ N and the structured contour kernel
// runs in O(N·p²) per node instead of the dense O(N³). Memory is
// O(N·p). Like HamiltonianMatrixLevel it fails when γ is a singular value
// of D.
func HamiltonianFactorsLevel(model *rational.Model, gamma float64) (*mat.StructuredShifted, error) {
	n := model.NumPoles()
	np := model.Ports()
	half := n * np
	g2 := gamma * gamma
	d := model.D
	r := d.T().Mul(d)
	q := d.Mul(d.T())
	for i := 0; i < np; i++ {
		r.Set(i, i, r.At(i, i)-g2)
		q.Set(i, i, q.At(i, i)-g2)
	}
	rInv, err := mat.Inverse(r)
	if err != nil {
		return nil, fmt.Errorf("passivity: DᵀD−γ²I singular (σ(D)=γ=%g): %w", gamma, err)
	}
	qInv, err := mat.Inverse(q)
	if err != nil {
		return nil, fmt.Errorf("passivity: DDᵀ−γ²I singular (σ(D)=γ=%g): %w", gamma, err)
	}
	// Λ: P copies of A₁'s blocks, then P copies of −A₁ᵀ's. A pair block
	// [[α, β], [−β, α]] transposes and negates to [[−α, β], [−β, −α]] — the
	// skew entry keeps its sign in the [[d₁, e], [−e, d₂]] encoding.
	diag := make([]float64, 2*half)
	skew := make([]float64, 2*half)
	for j := 0; j < np; j++ {
		base := j * n
		for k := 0; k < n; {
			p := model.Poles[k]
			if imag(p) == 0 {
				diag[base+k] = real(p)
				diag[half+base+k] = -real(p)
				k++
				continue
			}
			al, be := real(p), imag(p)
			diag[base+k], diag[base+k+1] = al, al
			skew[base+k] = be
			diag[half+base+k], diag[half+base+k+1] = -al, -al
			skew[half+base+k] = be
			k += 2
		}
	}
	_, b1 := rational.BasisFromPoles(model.Poles)
	cvs := make([][]float64, np*np) // cvs[i*P+j] = CVector(i,j): C[i][j·n+k]
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			cvs[i*np+j] = model.CVector(i, j)
		}
	}
	drInv := d.Mul(rInv)      // D·R⁻¹
	rInvDt := rInv.Mul(d.T()) // R⁻¹·Dᵀ
	u := mat.NewMatrix(2*half, 2*np)
	v := mat.NewMatrix(2*half, 2*np)
	for j := 0; j < np; j++ {
		for k := 0; k < n; k++ {
			row := j*n + k
			ut, ub := u.Row(row), u.Row(half+row)
			vt, vb := v.Row(row), v.Row(half+row)
			ut[j] = b1[k] // B = I_P⊗b₁
			for i := 0; i < np; i++ {
				ub[np+i] = cvs[i*np+j][k] // Cᵀ
			}
			for m := 0; m < np; m++ {
				// V top half: −Cᵀ·(D·R⁻¹) and γ²·Cᵀ·Q⁻¹ (R, Q symmetric).
				var a, b float64
				for i := 0; i < np; i++ {
					ci := cvs[i*np+j][k]
					a -= ci * drInv.At(i, m)
					b += ci * qInv.At(i, m)
				}
				vt[m] = a
				vt[np+m] = g2 * b
				// V bottom half: −B·R⁻¹ and B·(R⁻¹·Dᵀ).
				vb[m] = -b1[k] * rInv.At(j, m)
				vb[np+m] = b1[k] * rInvDt.At(j, m)
			}
		}
	}
	return mat.NewStructuredShifted(diag, skew, u, v), nil
}

// crossingsLevel returns the frequencies ω ≥ 0 (rad/s) at which some
// singular value of the model's scattering matrix crosses the level γ,
// found as the imaginary eigenvalues of the Hamiltonian matrix (see
// HamiltonianMatrixLevel). ctx (nil: never cancelled) is checked once per
// Hessenberg column and once per Francis iteration, and cancellation
// returns ctx.Err() itself.
func crossingsLevel(ctx context.Context, model *rational.Model, gamma float64) ([]float64, error) {
	sys := model.Realization()
	h, err := HamiltonianMatrixLevel(sys.A, sys.B, sys.C, sys.D, gamma)
	if err != nil {
		return nil, err
	}
	ev, err := mat.EigenValuesCtx(ctx, h)
	if err != nil {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("passivity: Hamiltonian eigenvalues: %w", err)
	}
	var crossings []float64
	scale := 0.0
	for _, z := range ev {
		if a := math.Hypot(real(z), imag(z)); a > scale {
			scale = a
		}
	}
	tol := 1e-8 * (1 + scale)
	for _, z := range ev {
		if math.Abs(real(z)) < tol && imag(z) > tol {
			crossings = append(crossings, imag(z))
		}
	}
	sortFloats(crossings)
	return crossings, nil
}

// sortFloats sorts NaN-free v ascending by <, stably: values that compare
// equal (duplicates, −0 and +0) keep their input order, exactly as an
// insertion sort would leave them, in O(n log n) comparisons.
func sortFloats(v []float64) {
	slices.SortStableFunc(v, func(a, b float64) int {
		switch {
		case a < b:
			return -1
		case b < a:
			return 1
		}
		return 0
	})
}
