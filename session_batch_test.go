package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/passivity"
	"repro/internal/rational"
)

// batchLibrary builds a deterministic library of n violating models of
// mixed orders.
func batchLibrary(t testing.TB, n int) []*Macromodel {
	t.Helper()
	lib := make([]*Macromodel, n)
	for i := range lib {
		m, err := SyntheticMacromodel(SyntheticModelOptions{
			Ports: 2, Poles: 16 + 2*(i%3), Seed: int64(40 + i), PeakGain: 1.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lib[i] = m
	}
	return lib
}

// scalarWeight builds a stable SISO weight from its pole-residue form.
func scalarWeight(t testing.TB, poles, residues []complex128, d float64) *Weight {
	t.Helper()
	m, err := rational.NewScalar(poles, residues, d)
	if err != nil {
		t.Fatal(err)
	}
	return &Weight{model: m}
}

// batchWeights returns two distinct deterministic sensitivity weights.
func batchWeights(t testing.TB) (*Weight, *Weight) {
	w := scalarWeight(t,
		[]complex128{complex(-2, 0), complex(-40, 300), complex(-40, -300)},
		[]complex128{complex(3, 0), complex(1, 2), complex(1, -2)},
		0.5)
	alt := scalarWeight(t, []complex128{complex(-5, 0)}, []complex128{2}, 1)
	return w, alt
}

// enforceSequential enforces every model with Enforce on a fresh Session,
// model i under weights[i] when that entry is non-nil — the reference the
// batch must match bit for bit.
func enforceSequential(t *testing.T, models []*Macromodel, opts EnforceOptions, weights []*Weight) []*EnforceReport {
	t.Helper()
	s := NewSession()
	reps := make([]*EnforceReport, len(models))
	for i, m := range models {
		mopts := opts
		if weights != nil && weights[i] != nil {
			mopts.Weight = weights[i]
		}
		rep, err := s.Enforce(context.Background(), m, mopts)
		if err != nil {
			t.Fatalf("sequential model %d: %v", i, err)
		}
		reps[i] = rep
	}
	return reps
}

// modelBytes is the full-precision JSON encoding of a model: equal bytes mean
// bitwise equal poles, residues and D.
func modelBytes(t *testing.T, m *Macromodel) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertBatchMatches checks a batch run against the sequential reference:
// every model and every report bitwise identical, and the aggregates
// consistent with the per-model reports.
func assertBatchMatches(t *testing.T, seq []*Macromodel, seqReps []*EnforceReport, bat []*Macromodel, rep *BatchEnforceReport) {
	t.Helper()
	n := len(seq)
	if rep.Models != n || rep.Failed != 0 || rep.Passive != n {
		t.Fatalf("bad aggregates: %d models, %d failed, %d passive", rep.Models, rep.Failed, rep.Passive)
	}
	iters := 0
	for i := range seq {
		if rep.Errors[i] != nil {
			t.Fatalf("model %d: %v", i, rep.Errors[i])
		}
		if modelBytes(t, bat[i]) != modelBytes(t, seq[i]) {
			t.Fatalf("model %d: batch result differs bitwise from sequential", i)
		}
		if !reflect.DeepEqual(rep.Reports[i], seqReps[i]) {
			t.Fatalf("model %d: report differs:\n%+v\nvs\n%+v", i, rep.Reports[i], seqReps[i])
		}
		iters += seqReps[i].Iterations
	}
	if rep.TotalIterations != iters {
		t.Fatalf("TotalIterations %d, sequential sum %d", rep.TotalIterations, iters)
	}
}

// TestSessionEnforceBatchMatchesSequential: the batch is bitwise identical
// to sequential Session.Enforce — same models, same reports — under the
// unweighted, shared-weight and per-model-weight costs, certified and
// uncertified, at 1, 2 and 4 workers.
func TestSessionEnforceBatchMatchesSequential(t *testing.T) {
	const n = 6
	weight, alt := batchWeights(t)
	base := EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}}
	weighted := base
	weighted.Weight = weight
	for _, c := range []struct {
		name    string
		opts    EnforceOptions
		weights []*Weight
	}{
		{"unweighted", base, nil},
		{"weighted", weighted, nil},
		// A nil entry selects the unweighted cost: Enforce.Weight is nil.
		{"per-model", base, []*Weight{weight, alt, nil, weight, alt, nil}},
	} {
		for _, certify := range []bool{false, true} {
			opts := c.opts
			opts.Certify = certify
			seq := batchLibrary(t, n)
			seqReps := enforceSequential(t, seq, opts, c.weights)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/certify=%v/workers=%d", c.name, certify, workers), func(t *testing.T) {
					bat := batchLibrary(t, n)
					rep, err := NewSession().EnforceBatch(context.Background(), bat, BatchEnforceOptions{
						Enforce: opts, Weights: c.weights, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					assertBatchMatches(t, seq, seqReps, bat, rep)
					if certify && rep.Certified != n {
						t.Fatalf("%d of %d models certified", rep.Certified, n)
					}
				})
			}
		}
	}
}

// TestSessionEnforceBatchPerModelWeights: Weights[i] selects model i's
// weight, a nil entry falls back to Enforce.Weight, and a mis-sized slice
// is rejected before any model is touched.
func TestSessionEnforceBatchPerModelWeights(t *testing.T) {
	const n = 3
	weight, alt := batchWeights(t)
	base := EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}}

	// Reference: model 0 under weight, models 1 and 2 under alt.
	seq := batchLibrary(t, n)
	seqReps := enforceSequential(t, seq, base, []*Weight{weight, alt, alt})

	bat := batchLibrary(t, n)
	fallback := base
	fallback.Weight = alt
	rep, err := NewSession().EnforceBatch(context.Background(), bat, BatchEnforceOptions{
		Enforce: fallback,
		Weights: []*Weight{weight, nil, nil},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatches(t, seq, seqReps, bat, rep)

	lib := batchLibrary(t, n)
	want := make([]string, n)
	for i, m := range lib {
		want[i] = modelBytes(t, m)
	}
	bad, err := NewSession().EnforceBatch(context.Background(), lib, BatchEnforceOptions{
		Enforce: base,
		Weights: []*Weight{weight},
	})
	if err == nil || bad != nil {
		t.Fatalf("mis-sized Weights: got report %v, error %v", bad, err)
	}
	for i, m := range lib {
		if modelBytes(t, m) != want[i] {
			t.Fatalf("model %d modified by a rejected batch", i)
		}
	}
}

// TestSessionEnforceBatchIsolatesFailures: a model that cannot be enforced
// (σ(D) above one without ClampD) fails alone; the rest of the library is
// still enforced.
func TestSessionEnforceBatchIsolatesFailures(t *testing.T) {
	lib := batchLibrary(t, 4)
	bad, err := rational.NewScalar([]complex128{-1}, []complex128{0.1}, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	lib[2] = &Macromodel{model: bad, r0: 50}
	rep, err := NewSession().EnforceBatch(context.Background(), lib, BatchEnforceOptions{
		Enforce: EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || !errors.Is(rep.Errors[2], passivity.ErrAsymptoticViolation) || rep.Reports[2] != nil {
		t.Fatalf("expected exactly the bad model to fail: %d failed, error %v", rep.Failed, rep.Errors[2])
	}
	for i, r := range rep.Reports {
		if i == 2 {
			continue
		}
		if rep.Errors[i] != nil || !r.Passive {
			t.Fatalf("model %d should have been enforced: err=%v", i, rep.Errors[i])
		}
	}
	if rep.Passive != 3 || rep.Models != 4 {
		t.Fatalf("bad aggregates: %d passive of %d", rep.Passive, rep.Models)
	}
}

// TestSessionEnforceBatchMatchesEnforceWeighted: the weighted batch lands
// bit for bit where the engine-level weighted enforcement
// (core.EnforceWeighted on the bare model) does, at 1, 2 and 4 workers —
// both build the cost from the same closed-form cascade Gramian.
func TestSessionEnforceBatchMatchesEnforceWeighted(t *testing.T) {
	const n = 5
	weight, _ := batchWeights(t)
	build := func() []*Macromodel {
		lib := make([]*Macromodel, n)
		for i := range lib {
			m, err := SyntheticMacromodel(SyntheticModelOptions{
				Ports: 2, Poles: 14 + 2*(i%3), Seed: int64(70 + i), PeakGain: 1.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			lib[i] = m
		}
		return lib
	}
	seq := build()
	for i, m := range seq {
		eopts := passivity.EnforceOptions{Check: passivity.CheckOptions{Method: passivity.MethodAdaptive}}
		if _, err := core.EnforceWeighted(m.model, weight.model, eopts); err != nil {
			t.Fatalf("EnforceWeighted model %d: %v", i, err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		lib := build()
		rep, err := NewSession().EnforceBatch(context.Background(), lib, BatchEnforceOptions{
			Enforce: EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}, Weight: weight},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range lib {
			if rep.Errors[i] != nil {
				t.Fatalf("workers=%d model %d: %v", workers, i, rep.Errors[i])
			}
			if modelBytes(t, lib[i]) != modelBytes(t, seq[i]) {
				t.Fatalf("workers=%d model %d: differs bitwise from EnforceWeighted", workers, i)
			}
		}
	}
}

// TestSessionEnforceBatchCertifiedWorkerInvariance: certified weighted
// enforcement of a library holding the narrow-band false-pass model — the
// fixed sweep steps over its shoulder band, so only certification catches
// it — is bitwise identical to sequential certified Enforce at every
// worker count, and the rescue surfaces in the batch aggregates.
func TestSessionEnforceBatchCertifiedWorkerInvariance(t *testing.T) {
	build := func() []*Macromodel {
		narrow, err := SyntheticMacromodel(SyntheticModelOptions{
			Ports: 2, Poles: 10, Seed: 3, NarrowBand: true, PeakGain: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		lib := []*Macromodel{narrow}
		for _, seed := range []int64{101, 102, 103} {
			m, err := SyntheticMacromodel(SyntheticModelOptions{Ports: 2, Poles: 12, Seed: seed, PeakGain: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			lib = append(lib, m)
		}
		return lib
	}
	w, err := rational.RandomScalarWeight(rand.New(rand.NewSource(42)), 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := EnforceOptions{
		Check:   CheckOptions{Method: CheckSweep},
		Weight:  &Weight{model: w},
		Certify: true,
	}
	seq := build()
	seqReps := enforceSequential(t, seq, opts, nil)

	var first *BatchEnforceReport
	for _, workers := range []int{1, 2, 4} {
		bat := build()
		rep, err := NewSession().EnforceBatch(context.Background(), bat, BatchEnforceOptions{Enforce: opts, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertBatchMatches(t, seq, seqReps, bat, rep)
		if rep.Certified != len(bat) {
			t.Fatalf("workers=%d: %d of %d models certified", workers, rep.Certified, len(bat))
		}
		if rep.CertifiedRescues == 0 {
			t.Fatalf("workers=%d: the narrow-band model's rescue did not surface in the batch aggregates", workers)
		}
		if first == nil {
			first = rep
		} else if rep.CertifiedRescues != first.CertifiedRescues || rep.WorstSigma != first.WorstSigma {
			t.Fatalf("aggregates differ across worker counts: %+v vs %+v", rep, first)
		}
	}
}

// TestSessionEnforceBatchHonoursCtx: a context cancelled before the call
// leaves every slot with ctx.Err() at every worker count.
func TestSessionEnforceBatchHonoursCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		rep, err := NewSession().EnforceBatch(ctx, batchLibrary(t, 4), BatchEnforceOptions{
			Enforce: EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}, ClampD: true},
			Workers: workers,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		for i, e := range rep.Errors {
			if !errors.Is(e, ctx.Err()) {
				t.Fatalf("workers=%d model %d: got %v, want %v", workers, i, e, ctx.Err())
			}
		}
		if rep.Failed != rep.Models {
			t.Fatalf("workers=%d: %d failed, want all %d", workers, rep.Failed, rep.Models)
		}
	}
}

// TestSessionEnforceBatchProgressTagsModels: every progress event of a
// batch carries the index of the model it belongs to — each model's
// iteration events number exactly its report's iterations.
func TestSessionEnforceBatchProgressTagsModels(t *testing.T) {
	const n = 4
	iterations := map[int]int{}
	s := NewSession(WithProgress(func(ev ProgressEvent) {
		if ev.Kind == ProgressIteration {
			iterations[ev.Model]++ // serialized delivery: no locking needed
		}
	}))
	rep, err := s.EnforceBatch(context.Background(), batchLibrary(t, n), BatchEnforceOptions{
		Enforce: EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iterations) != n {
		t.Fatalf("iteration events tagged with %d model indices, want %d: %v", len(iterations), n, iterations)
	}
	for i, r := range rep.Reports {
		if iterations[i] != r.Iterations {
			t.Fatalf("model %d: %d iteration events, report has %d iterations", i, iterations[i], r.Iterations)
		}
	}
}
