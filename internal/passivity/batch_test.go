package passivity

import (
	"testing"

	"repro/internal/rational"
)

// batchLibrary builds a deterministic library of violating models.
func batchLibrary(t *testing.T, n int) []*rational.Model {
	t.Helper()
	lib := make([]*rational.Model, n)
	for i := range lib {
		m, err := SyntheticModel(SyntheticOptions{
			Ports: 2, Poles: 16 + 2*(i%3), Seed: int64(40 + i), PeakGain: 1.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lib[i] = m
	}
	return lib
}

func modelsBitwiseEqual(a, b *rational.Model) bool {
	if len(a.Poles) != len(b.Poles) {
		return false
	}
	for i := range a.Poles {
		if a.Poles[i] != b.Poles[i] {
			return false
		}
	}
	for k := range a.Residues {
		if !a.Residues[k].Equalish(b.Residues[k], 0) {
			return false
		}
	}
	return a.D.Equalish(b.D, 0)
}

// TestEnforceBatchMatchesSequential: the batch path must be bitwise
// identical to per-model sequential Enforce — same residues, same reports —
// for any worker count.
func TestEnforceBatchMatchesSequential(t *testing.T) {
	const n = 6
	base := EnforceOptions{Check: CheckOptions{Method: MethodAdaptive}}

	seq := batchLibrary(t, n)
	seqReports := make([]*EnforceReport, n)
	for i, m := range seq {
		rep, err := Enforce(m, base)
		if err != nil {
			t.Fatalf("sequential model %d: %v", i, err)
		}
		seqReports[i] = rep
	}

	for _, workers := range []int{1, 4} {
		lib := batchLibrary(t, n)
		rep := EnforceBatch(lib, BatchOptions{Enforce: base, Workers: workers})
		if rep.Stats.Models != n || rep.Stats.Failed != 0 || rep.Stats.Passive != n {
			t.Fatalf("workers=%d: bad stats %+v", workers, rep.Stats)
		}
		for i := range lib {
			r := rep.Results[i]
			if r.Err != nil {
				t.Fatalf("workers=%d model %d: %v", workers, i, r.Err)
			}
			if !modelsBitwiseEqual(lib[i], seq[i]) {
				t.Fatalf("workers=%d model %d: batch result differs bitwise from sequential", workers, i)
			}
			if r.Report.Iterations != seqReports[i].Iterations ||
				r.Report.Final.MaxSigma != seqReports[i].Final.MaxSigma ||
				r.Report.Final.MaxOmega != seqReports[i].Final.MaxOmega {
				t.Fatalf("workers=%d model %d: report differs: %+v vs %+v",
					workers, i, r.Report.Final, seqReports[i].Final)
			}
		}
	}
}

// TestEnforceBatchIsolatesFailures: a model that cannot be enforced (σ(D)
// above one without ClampD) must fail alone; the rest of the library is
// still enforced.
func TestEnforceBatchIsolatesFailures(t *testing.T) {
	lib := batchLibrary(t, 4)
	bad, err := rational.NewScalar([]complex128{-1}, []complex128{0.1}, 1.05)
	if err != nil {
		t.Fatal(err)
	}
	lib[2] = bad
	rep := EnforceBatch(lib, BatchOptions{
		Enforce: EnforceOptions{Check: CheckOptions{Method: MethodAdaptive}},
		Workers: 2,
	})
	if rep.Stats.Failed != 1 || rep.Results[2].Err == nil {
		t.Fatalf("expected exactly the bad model to fail: %+v", rep.Stats)
	}
	for i, r := range rep.Results {
		if i == 2 {
			continue
		}
		if r.Err != nil || !r.Report.Passive {
			t.Fatalf("model %d should have been enforced: err=%v", i, r.Err)
		}
	}
	if rep.Stats.Passive != 3 || rep.Stats.Models != 4 {
		t.Fatalf("bad aggregates: %+v", rep.Stats)
	}
}

// sameWeight shares one weight across a library of n models.
func sameWeight(w *rational.Model, n int) []*rational.Model {
	ws := make([]*rational.Model, n)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

// weightForBatch builds a deterministic stable SISO weight.
func weightForBatch(t *testing.T) *rational.Model {
	t.Helper()
	w, err := rational.NewScalar(
		[]complex128{complex(-2, 0), complex(-40, 300), complex(-40, -300)},
		[]complex128{complex(3, 0), complex(1, 2), complex(1, -2)},
		0.5,
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEnforceBatchWeightedMatchesSequential: with a shared sensitivity
// weight the batch path must be bitwise identical — residues and reports —
// to sequential per-model weighted enforcement (Enforce with the
// closed-form cascade Gramian as cost) at every worker count.
func TestEnforceBatchWeightedMatchesSequential(t *testing.T) {
	const n = 6
	weight := weightForBatch(t)
	base := EnforceOptions{Check: CheckOptions{Method: MethodAdaptive}}

	seq := batchLibrary(t, n)
	seqReports := make([]*EnforceReport, n)
	for i, m := range seq {
		gram, err := rational.CascadeGramian(m.Poles, weight)
		if err != nil {
			t.Fatal(err)
		}
		opts := base
		opts.CostGramian = gram
		rep, err := Enforce(m, opts)
		if err != nil {
			t.Fatalf("sequential weighted model %d: %v", i, err)
		}
		seqReports[i] = rep
	}

	for _, workers := range []int{1, 4} {
		lib := batchLibrary(t, n)
		rep := EnforceBatch(lib, BatchOptions{Enforce: base, Weights: sameWeight(weight, n), Workers: workers})
		if rep.Stats.Models != n || rep.Stats.Failed != 0 || rep.Stats.Passive != n {
			t.Fatalf("workers=%d: bad stats %+v", workers, rep.Stats)
		}
		for i := range lib {
			if rep.Results[i].Err != nil {
				t.Fatalf("workers=%d model %d: %v", workers, i, rep.Results[i].Err)
			}
			if !modelsBitwiseEqual(lib[i], seq[i]) {
				t.Fatalf("workers=%d model %d: weighted batch differs bitwise from sequential", workers, i)
			}
			r := rep.Results[i].Report
			if r.Iterations != seqReports[i].Iterations ||
				r.Final.MaxSigma != seqReports[i].Final.MaxSigma {
				t.Fatalf("workers=%d model %d: report differs", workers, i)
			}
		}
	}
}

// TestEnforceBatchPerModelWeights: Weights[i] selects model i's weight, a
// nil entry selects the unweighted cost, and a mis-sized slice fails every
// slot with the sentinel instead of panicking mid-shard.
func TestEnforceBatchPerModelWeights(t *testing.T) {
	const n = 3
	weight := weightForBatch(t)
	alt, err := rational.NewScalar([]complex128{complex(-5, 0)}, []complex128{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := EnforceOptions{Check: CheckOptions{Method: MethodAdaptive}}

	// Reference: model 0 under weight, model 1 under alt, model 2 unweighted.
	weights := []*rational.Model{weight, alt, nil}
	seq := batchLibrary(t, n)
	for i, m := range seq {
		opts := base
		if weights[i] != nil {
			gram, err := rational.CascadeGramian(m.Poles, weights[i])
			if err != nil {
				t.Fatal(err)
			}
			opts.CostGramian = gram
		}
		if _, err := Enforce(m, opts); err != nil {
			t.Fatalf("sequential model %d: %v", i, err)
		}
	}

	lib := batchLibrary(t, n)
	rep := EnforceBatch(lib, BatchOptions{
		Enforce: base,
		Weights: weights,
		Workers: 2,
	})
	for i := range lib {
		if rep.Results[i].Err != nil {
			t.Fatalf("model %d: %v", i, rep.Results[i].Err)
		}
		if !modelsBitwiseEqual(lib[i], seq[i]) {
			t.Fatalf("model %d: per-model weight selection differs from sequential", i)
		}
	}

	bad := EnforceBatch(batchLibrary(t, n), BatchOptions{
		Enforce: base,
		Weights: []*rational.Model{weight},
	})
	if bad.Stats.Failed != n {
		t.Fatalf("mis-sized Weights should fail every model: %+v", bad.Stats)
	}
	for i, r := range bad.Results {
		if r.Err != ErrBatchWeightCount {
			t.Fatalf("model %d: want ErrBatchWeightCount, got %v", i, r.Err)
		}
	}
}
