package passivity_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/synthpdn"
	"repro/internal/vecfit"
)

// TestSigmaAtMatchesJacobiOnPaperFlowModel: the per-sample σ kernel agrees
// with the one-sided Jacobi oracle within the package-doc bound
// c·P·ε·σ_max (c = 4, counted for both kernels) at every point of the
// check grid of the paper-flow fitted model (8-port synthpdn.Small, seed
// 1, DC plus 100 log points over 1 kHz–2 GHz, 12 poles with Ξ weights and
// D capped at 0.999).
func TestSigmaAtMatchesJacobiOnPaperFlowModel(t *testing.T) {
	cfg := synthpdn.Small()
	cfg.Seed = 1
	p, err := synthpdn.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freqs := []float64{0}
	for i := 0; i < 100; i++ {
		freqs = append(freqs, 1e3*math.Pow(2e9/1e3, float64(i)/99))
	}
	samples, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	omega := make([]float64, len(freqs))
	for i, f := range freqs {
		omega[i] = 2 * math.Pi * f
	}
	_, xi, err := core.BuildWeight(omega, samples, 50, p.NominalLoad(), 8)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := vecfit.Fit(omega, samples, vecfit.Options{NumPoles: 12, Weights: xi, ConstrainD: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	grid, sigma := passivity.SigmaOnSweepGrid(model)
	const eps = 0x1p-53
	worst := 0.0
	for i, w := range grid {
		want := mat.SingularValues(model.Eval(w))[0]
		d := math.Abs(sigma[i] - want)
		if d > 2*4*float64(model.Ports())*eps*want {
			t.Fatalf("ω = %g: σ kernel %.17g, Jacobi %.17g", w, sigma[i], want)
		}
		worst = max(worst, d/want)
	}
	t.Logf("%d grid points, worst relative disagreement %.3g", len(grid), worst)
}
