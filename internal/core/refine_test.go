package core

import (
	"math"
	"testing"

	"repro/internal/pdn"
	"repro/internal/synthpdn"
	"repro/internal/vecfit"
)

func smallPDNData(t *testing.T) ([]float64, *synthpdn.PDN, *pdn.Load, []float64) {
	t.Helper()
	p, err := synthpdn.Build(synthpdn.Small())
	if err != nil {
		t.Fatal(err)
	}
	var freqs []float64
	freqs = append(freqs, 0)
	n := 50
	for i := 0; i < n; i++ {
		f := 1e3 * math.Pow(2e9/1e3, float64(i)/float64(n-1))
		freqs = append(freqs, f)
	}
	omega := make([]float64, len(freqs))
	for i, f := range freqs {
		omega[i] = 2 * math.Pi * f
	}
	return omega, p, p.NominalLoad(), freqs
}

func TestFitRefinedNeverWorseThanRoundZero(t *testing.T) {
	omega, p, load, freqs := smallPDNData(t)
	samples, err := p.Circuit.SweepS(freqs, 50)
	if err != nil {
		t.Fatal(err)
	}
	model, rep, err := FitRefined(omega, samples, 50, load, RefineOptions{
		Rounds: 2,
		Fit:    vecfit.Options{NumPoles: 8, Iterations: 5, ConstrainD: 0.999},
	})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil {
		t.Fatal("no model returned")
	}
	if len(rep.WorstRelErr) != 3 {
		t.Fatalf("expected 3 recorded rounds, got %d", len(rep.WorstRelErr))
	}
	best := rep.WorstRelErr[rep.BestRound]
	for r, e := range rep.WorstRelErr {
		if e < best-1e-12 {
			t.Fatalf("round %d error %v beats recorded best %v", r, e, best)
		}
	}
	if best > rep.WorstRelErr[0]+1e-12 {
		t.Fatalf("refinement must not be worse than the plain weights: %v vs %v", best, rep.WorstRelErr[0])
	}
	if len(rep.Weights) != len(omega) {
		t.Fatalf("weights length %d want %d", len(rep.Weights), len(omega))
	}
	for _, w := range rep.Weights {
		if !(w > 0) {
			t.Fatalf("nonpositive refined weight %v", w)
		}
	}
}

func TestBoostWeightsClipsAndScales(t *testing.T) {
	// Past 2·maxBoost samples one outlier can exceed maxBoost times the
	// mean error, so both clips engage.
	n := 2 * maxBoost
	w, e := make([]float64, n), make([]float64, n)
	for i := range w {
		w[i], e[i] = 1, 1
	}
	e[0], e[n-1] = 1e-6, 1e6
	out := boostWeights(w, e)
	if out[0] != 1.0/maxBoost {
		t.Fatalf("low-error weight should clip to 1/maxBoost, got %v", out[0])
	}
	if out[n-1] != maxBoost {
		t.Fatalf("high-error weight should clip to maxBoost, got %v", out[n-1])
	}
	for _, v := range out[1 : n-1] {
		if v <= 0 {
			t.Fatal("boosted weights must stay positive")
		}
	}
}
