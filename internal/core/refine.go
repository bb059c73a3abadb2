package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
	"repro/internal/pdn"
	"repro/internal/rational"
	"repro/internal/vecfit"
)

// RefineOptions configures the iterative reweighting of Grivet-Talocia et
// al., "An iterative reweighting process for macromodel extraction of power
// distribution networks" (EPEPS 2013) — reference [23] of the paper, whose
// weight-refinement step the paper builds on.
type RefineOptions struct {
	// Rounds is the number of refinement rounds after the initial
	// sensitivity-weighted fit (default 3).
	Rounds int
	// Fit carries the Vector Fitting configuration (NumPoles mandatory).
	Fit vecfit.Options
}

// RefineReport records one refinement run.
type RefineReport struct {
	// WorstRelErr lists the worst relative target-impedance error of the
	// model after each round (index 0 = plain sensitivity weights).
	WorstRelErr []float64
	// BestRound is the index into WorstRelErr that produced the returned
	// model.
	BestRound int
	// Weights are the final (best) per-frequency weights.
	Weights []float64
}

// FitRefined runs the iterative reweighting loop of [23]: fit with the
// first-order sensitivity weights w_k = Ξ_k, measure the realized
// macromodel-based target-impedance error against the data-based nominal
// response, boost the weights where that error concentrates, and refit.
// The best model over all rounds (in the worst-relative-Z_PDN metric) is
// returned, so refinement can only help.
func FitRefined(omega []float64, samples []*mat.CMatrix, r0 float64, load *pdn.Load, opts RefineOptions) (*rational.Model, *RefineReport, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	xi, err := pdn.Sensitivity(omega, samples, r0, load)
	if err != nil {
		return nil, nil, fmt.Errorf("core: sensitivity sweep: %w", err)
	}
	zref, err := pdn.TargetImpedance(omega, samples, r0, load)
	if err != nil {
		return nil, nil, fmt.Errorf("core: nominal impedance: %w", err)
	}

	weights := append([]float64(nil), xi...)
	rep := &RefineReport{BestRound: -1}
	var best *rational.Model
	bestScore := math.Inf(1)
	bestWeights := weights

	for round := 0; round <= opts.Rounds; round++ {
		fitOpts := opts.Fit
		fitOpts.Weights = weights
		model, _, err := vecfit.Fit(omega, samples, fitOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: refinement round %d: %w", round, err)
		}
		relErr, score, err := realizedError(model, omega, r0, load, zref)
		if err != nil {
			return nil, nil, fmt.Errorf("core: refinement round %d: %w", round, err)
		}
		rep.WorstRelErr = append(rep.WorstRelErr, score)
		if score < bestScore {
			best, bestScore, rep.BestRound = model, score, round
			bestWeights = append([]float64(nil), weights...)
		}
		if round == opts.Rounds {
			break
		}
		weights = boostWeights(weights, relErr)
	}
	rep.Weights = bestWeights
	return best, rep, nil
}

// realizedError evaluates the model-based Z_PDN against the nominal one,
// returning the per-frequency relative error and its maximum.
func realizedError(model *rational.Model, omega []float64, r0 float64, load *pdn.Load, zref []complex128) ([]float64, float64, error) {
	relErr := make([]float64, len(omega))
	worst := 0.0
	for k, w := range omega {
		z, err := pdn.TargetImpedanceAt(model.Eval(w), r0, w, load)
		if err != nil {
			return nil, 0, err
		}
		relErr[k] = cmplx.Abs(z-zref[k]) / (1e-15 + cmplx.Abs(zref[k]))
		if relErr[k] > worst {
			worst = relErr[k]
		}
	}
	return relErr, worst, nil
}

// boostExponent is the exponent α applied to the realized error ratio, and
// maxBoost clips the per-round, per-frequency weight multiplier into
// [1/maxBoost, maxBoost].
const (
	boostExponent = 1
	maxBoost      = 30
)

// boostWeights multiplies each weight by (e_k/ē)^α, clipped, where ē is
// the mean realized error: frequencies that dominate the loaded-domain
// error gain emphasis in the next least-squares pass.
func boostWeights(weights, relErr []float64) []float64 {
	mean := 0.0
	for _, e := range relErr {
		mean += e
	}
	mean /= float64(len(relErr))
	if mean <= 0 {
		return weights
	}
	out := make([]float64, len(weights))
	for k, w := range weights {
		boost := math.Pow(relErr[k]/mean, boostExponent)
		if boost > maxBoost {
			boost = maxBoost
		}
		if boost < 1.0/maxBoost {
			boost = 1.0 / maxBoost
		}
		out[k] = w * boost
	}
	return out
}
