// Package core implements the primary contribution of Ubolli et al.,
// "Sensitivity-based weighting for passivity enforcement of linear
// macromodels in power integrity applications" (DATE 2014): the inclusion
// of the target-impedance sensitivity Ξ(ω) as a frequency-dependent weight
// inside the passivity enforcement loop.
//
// The pieces, following §III of the paper:
//
//  1. the sensitivity samples Ξ_k come from the nominal termination
//     network (internal/pdn, eq. 5);
//  2. a low-order minimum-phase rational weight Ξ̃(s) is fitted to them by
//     Magnitude Vector Fitting (internal/vecfit, eq. 17);
//  3. for each scattering entry the cascade S_ij(s)·Ξ̃(s) is realized in
//     the block form (18); its controllability Gramian is partitioned (19)
//     and the (1,1) block defines the weighted norm (20)
//     ‖δS_ij‖²_Ξ = δc_ij·P^Ξ,11·δc_ijᵀ, assembled over entries (21);
//  4. that norm replaces the standard L2 cost in the enforcement QP
//     (internal/passivity, eq. 9).
//
// With poles shared by all entries the cascade (A,B) pair — and hence
// P^Ξ,11 — is identical for every entry, so the weighted cost is exactly
// one Lyapunov solve more expensive than the standard one, matching the
// paper's "negligible overhead" claim.
package core

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/pdn"
	"repro/internal/rational"
	"repro/internal/statespace"
	"repro/internal/vecfit"
)

// ErrWeightNotSISO is returned when the weight model is not scalar. It
// aliases the rational-package sentinel so errors.Is matches either spelling.
var ErrWeightNotSISO = rational.ErrWeightNotSISO

// CascadeError is the typed error returned by the weighted-Gramian
// constructors when the cascade realization S_ij(s)·Ξ̃(s) or its Gramian
// cannot be built (unstable poles, dimension mismatch, failed Lyapunov
// solve). Stage names the step that failed; Unwrap exposes the cause.
type CascadeError struct {
	Stage string // "cascade realization" or "gramian"
	Err   error
}

// Error implements the error interface.
func (e *CascadeError) Error() string {
	return fmt.Sprintf("core: weighted cascade %s: %v", e.Stage, e.Err)
}

// Unwrap returns the underlying cause.
func (e *CascadeError) Unwrap() error { return e.Err }

// WeightedGramian computes the (1,1) block P^Ξ,11 of the controllability
// Gramian of the cascade S_ij(s)·Ξ̃(s) (paper eqs. 18–19). The block is
// common to all matrix entries because the model's poles are. The cascade
// A matrix is block upper-triangular with tiny (≤2×2) diagonal blocks, so
// the Gramian is assembled block-by-block in closed form
// (rational.CascadeGramian, O(n² + n·n_w)) instead of through a dense
// (n+n_w)-dimensional Lyapunov solve; WeightedGramianDense keeps the dense
// statespace path as the validation oracle.
func WeightedGramian(model *rational.Model, weight *rational.Model) (*mat.Matrix, error) {
	if weight.Ports() != 1 {
		return nil, ErrWeightNotSISO
	}
	p11, err := rational.CascadeGramian(model.Poles, weight)
	if err != nil {
		return nil, &CascadeError{Stage: "gramian", Err: err}
	}
	return p11, nil
}

// WeightedGramianDense is the dense-oracle construction of P^Ξ,11: the
// cascade is realized explicitly through statespace.Series (eq. 18) and its
// full (n+n_w)-dimensional controllability Gramian solved by the dense
// quasi-triangular Lyapunov solver, then partitioned (eq. 19). It is
// O((n+n_w)³) and exists to cross-validate — and benchmark against — the
// closed-form WeightedGramian, which must match it to tight tolerance.
func WeightedGramianDense(model *rational.Model, weight *rational.Model) (*mat.Matrix, error) {
	if weight.Ports() != 1 {
		return nil, ErrWeightNotSISO
	}
	a1, b1 := model.BasisRealization()
	n := len(b1)
	wsys := weight.Realization() // SISO realization of Ξ̃

	// Cascade (18): A = [[A₁, b₁c̃],[0, Ã]], B = [b₁d̃; b̃]. The Gramian
	// depends only on (A, B); C and D are zero stand-ins of the right shape.
	bcol := mat.NewMatrix(n, 1)
	for i, v := range b1 {
		bcol.Set(i, 0, v)
	}
	g := statespace.MustNew(a1, bcol, mat.NewMatrix(1, n), mat.NewMatrix(1, 1))
	cascade, err := statespace.Series(g, wsys)
	if err != nil {
		return nil, &CascadeError{Stage: "cascade realization", Err: err}
	}
	p, err := cascade.Gramian()
	if err != nil {
		return nil, &CascadeError{Stage: "gramian", Err: err}
	}
	p11 := p.Slice(0, n, 0, n)
	p11.Symmetrize()
	return p11, nil
}

// EnforceWeighted runs the passivity enforcement loop with the
// sensitivity-weighted cost (paper §III, second option): the norm
// minimized per iteration is Σ_ij δc_ij·P^Ξ,11·δc_ijᵀ.
func EnforceWeighted(model *rational.Model, weight *rational.Model, opts passivity.EnforceOptions) (*passivity.EnforceReport, error) {
	gram, err := WeightedGramian(model, weight)
	if err != nil {
		return nil, err
	}
	opts.CostGramian = gram
	return passivity.Enforce(model, opts)
}

// weightFloor clips the sensitivity samples from below at
// weightFloor·max(Ξ) to keep the magnitude fit well conditioned across
// deep valleys.
const weightFloor = 1e-4

// BuildWeight computes the sensitivity samples Ξ_k of the loaded PDN from
// its scattering data (eq. 5, closed form) and fits the minimum-phase
// rational weight Ξ̃(s) of the given order n_w (≤ 0 selects 8, the paper's
// value) by Magnitude Vector Fitting with its default iteration count. It
// returns the weight model and the raw samples.
func BuildWeight(omega []float64, samples []*mat.CMatrix, r0 float64, load *pdn.Load, order int) (*rational.Model, []float64, error) {
	if order <= 0 {
		order = 8
	}
	xi, err := pdn.Sensitivity(omega, samples, r0, load)
	if err != nil {
		return nil, nil, fmt.Errorf("core: sensitivity sweep: %w", err)
	}
	// Clip the deep valleys: the weight only needs to be right where the
	// sensitivity is significant (the paper likewise skips the ~GHz spike
	// because both S and Z are already accurate there).
	maxXi := 0.0
	for _, v := range xi {
		if v > maxXi {
			maxXi = v
		}
	}
	clipped := make([]float64, len(xi))
	floor := weightFloor * maxXi
	for i, v := range xi {
		if v < floor {
			v = floor
		}
		clipped[i] = v
	}
	weight, _, err := vecfit.FitMagnitude(omega, clipped, vecfit.MagOptions{Order: order})
	if err != nil {
		return nil, nil, fmt.Errorf("core: magnitude fit of sensitivity: %w", err)
	}
	return weight, xi, nil
}
