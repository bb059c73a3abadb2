package passivity

import (
	"math/rand"
	"testing"

	"repro/internal/rational"
)

// This file encodes the ROADMAP repro: a 10-pole weighted-enforced
// synthetic PDN model whose adaptive final check passes while the
// Hamiltonian oracle still finds a residual violation band — the weighted
// cost makes exactly such leftovers likelier because perturbing
// high-sensitivity bands is deliberately expensive, and a sampling
// characterizer at a capped refinement depth (the large-model operating
// point) steps over the band that remains. Pre-refactor this was only
// detectable by running the oracle by hand; post-refactor, certified
// enforcement turns the false pass into an impossible state.

// falsePassModel builds the deterministic 10-pole repro model and the
// enforcement options with the weighted cost Gramian of a random
// sensitivity weight installed.
func falsePassModel(t *testing.T) (*rational.Model, *EnforceOptions) {
	t.Helper()
	model, err := SyntheticModel(SyntheticOptions{
		Ports: 2, Poles: 10, Seed: 3, NarrowBand: true, PeakGain: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	weight, err := rational.RandomScalarWeight(rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	gram, err := rational.CascadeGramian(model.Poles, weight)
	if err != nil {
		t.Fatal(err)
	}
	return model, &EnforceOptions{
		// The capped refinement depth models a latency-bounded service
		// configuration; the narrow residual band needs ~17 bisection
		// stages to resolve and is invisible at 6.
		Check:       CheckOptions{Method: MethodAdaptive, AdaptiveMaxStages: 6},
		CostGramian: gram,
	}
}

// oracleWorstSigma locates the worst σ between the oracle's unit
// crossings (0 when the model has none, i.e. it is truly passive).
func oracleWorstSigma(t *testing.T, m *rational.Model) (float64, float64) {
	t.Helper()
	cr, err := HamiltonianCrossings(m)
	if err != nil {
		t.Fatal(err)
	}
	worst, at := 0.0, 0.0
	ws := &checkWorkspace{}
	for i := 0; i+1 < len(cr); i++ {
		pw, ps := refinePeak(m, cr[i], cr[i+1], testPoint(cr[i], cr[i+1]), nil, ws)
		if ps > worst {
			worst, at = ps, pw
		}
	}
	return worst, at
}

// TestAdaptiveFalsePassCaughtByCertification is the regression pair.
// Uncertified (pre-refactor behaviour): the weighted enforcement converges
// on the adaptive check's word and the oracle still finds a residual band.
// Certified: the same enforcement must catch that band through the
// pipeline, name the stage that caught it, and deliver a model the oracle
// agrees is passive.
func TestAdaptiveFalsePassCaughtByCertification(t *testing.T) {
	model, opts := falsePassModel(t)

	// Pre-refactor behaviour: adaptive-only enforcement false-passes.
	plain := model.Clone()
	rep, err := Enforce(plain, *opts)
	if err != nil {
		t.Fatalf("uncertified enforcement errored: %v", err)
	}
	if !rep.Passive {
		t.Fatal("uncertified enforcement did not converge — repro conditions changed")
	}
	worst, at := oracleWorstSigma(t, plain)
	if worst <= 1+1e-9 {
		t.Fatalf("oracle found no residual violation (σ=%g) — the repro no longer reproduces the false pass", worst)
	}
	t.Logf("uncertified enforcement false-passed: oracle finds σ=%.9f at ω=%.6g", worst, at)

	// Post-refactor: certification makes the false pass impossible.
	certified := model.Clone()
	copts := *opts
	copts.Certify = true
	crep, err := Enforce(certified, copts)
	if err != nil {
		t.Fatalf("certified enforcement errored: %v", err)
	}
	if !crep.Passive {
		t.Fatal("certified enforcement did not converge")
	}
	if crep.Certificate == nil || !crep.Certificate.Certified {
		t.Fatalf("missing or incomplete certificate: %+v", crep.Certificate)
	}
	if crep.Certificate.Stage == "" {
		t.Fatal("certificate does not name its stage")
	}
	if crep.CertifiedRescues == 0 {
		t.Fatal("certification never rescued a convergence — the repro band was not caught by the pipeline")
	}
	if worst, at := oracleWorstSigma(t, certified); worst > 1+1e-9 {
		t.Fatalf("oracle still finds σ=%.9f at ω=%.6g after certified enforcement", worst, at)
	}
	// The final certificate describes the last (clean) pipeline run — the
	// rescue count above proves a violation was caught mid-run — and must
	// carry the per-stage accounting the CLI reports.
	if len(crep.Certificate.Stages) == 0 {
		t.Fatal("certificate carries no stage accounting")
	}
}
