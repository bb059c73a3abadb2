package passivity

import (
	"math"
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

// falsePassModel builds the deterministic 10-pole repro model, the shared
// sensitivity weight, and the enforcement options with the weighted cost
// Gramian installed.
func falsePassModel(t *testing.T) (*rational.Model, *rational.Model, *EnforceOptions) {
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
	return model, weight, &EnforceOptions{
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
	model, _, opts := falsePassModel(t)

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

// TestCertifiedBatchWorkerInvariance pins the acceptance criterion that
// certified batch enforcement stays bitwise identical across worker
// counts: each model — including the repro false-pass model — is certified
// on its owning worker with purely per-model state.
func TestCertifiedBatchWorkerInvariance(t *testing.T) {
	build := func() ([]*rational.Model, BatchOptions) {
		repro, weight, opts := falsePassModel(t)
		lib := []*rational.Model{repro}
		for _, seed := range []int64{101, 102, 103} {
			m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 12, Seed: seed, PeakGain: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			lib = append(lib, m)
		}
		// One weight for every model: each model's cost Gramian is built
		// on its owning worker from its own pole set.
		bopts := BatchOptions{Enforce: *opts, Weights: sameWeight(weight, len(lib))}
		bopts.Enforce.CostGramian = nil
		bopts.Enforce.Certify = true
		return lib, bopts
	}

	lib1, b1 := build()
	b1.Workers = 1
	rep1 := EnforceBatch(lib1, b1)
	lib4, b4 := build()
	b4.Workers = 4
	rep4 := EnforceBatch(lib4, b4)

	if rep1.Stats != rep4.Stats {
		t.Fatalf("batch stats differ across worker counts:\n%+v\nvs\n%+v", rep1.Stats, rep4.Stats)
	}
	if rep1.Stats.Certified != len(lib1) {
		t.Fatalf("expected every model certified, got %d/%d", rep1.Stats.Certified, len(lib1))
	}
	if rep1.Stats.CertifiedRescues == 0 {
		t.Fatal("the repro model's rescue did not surface in the batch stats")
	}
	for i := range lib1 {
		if lib1[i].NumPoles() != lib4[i].NumPoles() {
			t.Fatalf("model %d order differs", i)
		}
		for k := range lib1[i].Residues {
			a, b := lib1[i].Residues[k], lib4[i].Residues[k]
			for e := range a.Data {
				if a.Data[e] != b.Data[e] {
					t.Fatalf("model %d residue %d entry %d differs bitwise: %v vs %v (Δ=%g)",
						i, k, e, a.Data[e], b.Data[e], math.Abs(real(a.Data[e]-b.Data[e])))
				}
			}
		}
	}
}
