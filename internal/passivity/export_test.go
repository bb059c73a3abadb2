package passivity

import "repro/internal/rational"

// SigmaOnSweepGrid returns the default pole-seeded check grid of model and
// σ_max(S(jω)) on it from the production per-sample kernel (sigmaAt).
func SigmaOnSweepGrid(model *rational.Model) (grid, sigma []float64) {
	var opts CheckOptions
	opts.defaults(model)
	grid = poleSeededGrid(nil, model, opts.SweepPoints, opts.OmegaMin, opts.OmegaMax)
	sortFloats(grid)
	ws := &checkWorkspace{}
	for _, w := range grid {
		sigma = append(sigma, ws.sigmaAt(model, w))
	}
	return grid, sigma
}
