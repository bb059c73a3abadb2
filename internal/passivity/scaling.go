package passivity

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/rational"
)

// ScalingReport summarizes a residue-scaling enforcement run.
type ScalingReport struct {
	Passive bool
	// Gamma is the applied residue scale factor γ ∈ (0, 1].
	Gamma float64
	// Checks counts the passivity checks spent in the bisection.
	Checks int
	// Final is the passivity report of the scaled model.
	Final *Report
}

// EnforceByResidueScaling makes the model passive by scaling every residue
// matrix with a single factor γ found by bisection: the largest γ ∈ (0, 1]
// whose scaled model passes the passivity check. The poles and D stay
// fixed; as γ → 0 the model degenerates to S(s) = D, which is passive once
// σmax(D) < 1, so termination is guaranteed.
//
// This is the crudest guaranteed-passive scheme: it wipes out accuracy
// uniformly across frequency instead of perturbing only where violations
// live, and serves as the strawman baseline in the enforcement-accuracy
// ablation (FINDINGS ext-d-enforcement-ablation). Real flows should use
// Enforce or the sensitivity-weighted scheme.
func EnforceByResidueScaling(model *rational.Model, opts EnforceOptions) (*ScalingReport, error) {
	if opts.Margin <= 0 {
		opts.Margin = 1e-4
	}
	rep := &ScalingReport{Gamma: 1}
	dSigma := mat.MaxSingularValue(mat.RealToComplex(model.D))
	if dSigma >= 1-opts.Margin {
		if !opts.ClampD {
			return nil, fmt.Errorf("%w (σmax(D)=%g)", ErrAsymptoticViolation, dSigma)
		}
		clampDMatrix(model, 1-2*opts.Margin)
	}

	if opts.Check.Cache == nil {
		// Every bisection probe shares the pole set; the cache carries the
		// adaptive warm-start grid across probes.
		opts.Check.Cache = NewEvalCache()
	}
	passiveAt := func(gamma float64) (bool, *Report, error) {
		rep.Checks++
		chk, err := Check(scaledClone(model, gamma), opts.Check)
		if err != nil {
			return false, nil, err
		}
		return chk.Passive, chk, nil
	}

	ok, chk, err := passiveAt(1)
	if err != nil {
		return nil, err
	}
	if ok {
		rep.Passive = true
		rep.Final = chk
		return rep, nil
	}

	// Bisection invariant: lo passive (γ=0 ⇒ S≡D), hi not passive.
	lo, hi := 0.0, 1.0
	var loReport *Report
	const tol = 1e-3
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, chk, err := passiveAt(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo, loReport = mid, chk
		} else {
			hi = mid
		}
	}
	if loReport == nil {
		// Even tiny residues violate (can only happen for Margin-sized
		// numerical slack); fall back to the D-only model.
		ok, chk, err := passiveAt(lo)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: residue scaling found no passive γ", ErrEnforceFailed)
		}
		loReport = chk
	}
	applyScale(model, lo)
	rep.Gamma = lo
	rep.Passive = true
	rep.Final = loReport
	return rep, nil
}

// scaledClone returns a deep copy of the model with residues scaled by γ.
func scaledClone(model *rational.Model, gamma float64) *rational.Model {
	out := model.Clone()
	applyScale(out, gamma)
	return out
}

func applyScale(model *rational.Model, gamma float64) {
	for k, r := range model.Residues {
		model.Residues[k] = r.Scale(complex(gamma, 0))
	}
}
