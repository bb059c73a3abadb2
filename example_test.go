package repro_test

// Runnable godoc examples for the root API. They use the deterministic
// synthetic model generator (no data files), the adaptive characterizer,
// and coarse printing (verdicts, iteration behavior — not raw floats) so
// the expected output is stable across platforms.

import (
	"context"
	"fmt"

	repro "repro"
)

// violatingModel builds a deterministic 2-port macromodel with a
// passivity violation (σmax crosses one mid-band).
func violatingModel(seed int64) *repro.Macromodel {
	m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
		Ports: 2, Poles: 20, Seed: seed, PeakGain: 1.1,
	})
	if err != nil {
		panic(err)
	}
	return m
}

func ExampleCheckPassivity() {
	m := violatingModel(3)
	rep, err := repro.CheckPassivity(m, repro.CheckOptions{Method: repro.CheckAdaptive})
	if err != nil {
		panic(err)
	}
	fmt.Printf("passive: %v\n", rep.Passive)
	fmt.Printf("method: %s\n", rep.Method)
	fmt.Printf("violations found: %v\n", len(rep.Violations) > 0)
	fmt.Printf("sigma exceeds one: %v\n", rep.MaxSigma > 1)
	// Output:
	// passive: false
	// method: adaptive
	// violations found: true
	// sigma exceeds one: true
}

func ExampleNewSession() {
	// A long-lived Session keys evaluation caches by pole-set fingerprint,
	// so the second check of the same model is served from the σ layer —
	// with results bitwise identical to the stateless CheckPassivity.
	m := violatingModel(3)
	sess := repro.NewSession()
	ctx := context.Background()
	opts := repro.CheckOptions{Method: repro.CheckAdaptive}

	cold, err := sess.Check(ctx, m, opts)
	if err != nil {
		panic(err)
	}
	warm, err := sess.Check(ctx, m, opts)
	if err != nil {
		panic(err)
	}
	st := sess.CacheStats()
	fmt.Printf("passive: %v\n", cold.Passive)
	fmt.Printf("warm identical: %v\n", cold.MaxSigma == warm.MaxSigma && cold.Samples == warm.Samples)
	fmt.Printf("caches resident: %d\n", st.Models)
	fmt.Printf("cache has entries: %v\n", st.SigmaEntries > 0)
	// Output:
	// passive: false
	// warm identical: true
	// caches resident: 1
	// cache has entries: true
}

func ExampleSession_EnforceBatch() {
	// Session.EnforceBatch shards a library across workers with
	// fingerprint-keyed caches, a cancellable context and progress events;
	// results are bitwise identical to sequential EnforcePassivity.
	models := []*repro.Macromodel{violatingModel(3), violatingModel(4)}
	var iterations int
	sess := repro.NewSession(repro.WithProgress(func(ev repro.ProgressEvent) {
		if ev.Kind == repro.ProgressIteration {
			iterations++
		}
	}))
	rep, err := sess.EnforceBatch(context.Background(), models, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
			ClampD: true,
		},
		Workers: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("passive: %d/%d\n", rep.Passive, rep.Models)
	fmt.Printf("progress saw every sweep: %v\n", iterations == rep.TotalIterations)
	// Output:
	// passive: 2/2
	// progress saw every sweep: true
}

func ExampleEnforcePassivity() {
	m := violatingModel(3)
	rep, err := repro.EnforcePassivity(m, repro.EnforceOptions{
		Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
		ClampD: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("passive after enforcement: %v\n", rep.Passive)
	fmt.Printf("converged within 40 iterations: %v\n", rep.Iterations <= 40)
	fmt.Printf("final sigma <= 1: %v\n", rep.Final.MaxSigma <= 1)
	// Output:
	// passive after enforcement: true
	// converged within 40 iterations: true
	// final sigma <= 1: true
}

func ExampleEnforcePassivity_weighted() {
	// The paper's scheme: fit the sensitivity weight Xi~(s) of a loaded
	// PDN, then minimize the weighted norm built from the closed-form
	// cascade Gramian P^Xi,11 instead of the plain L2 cost.
	freqs := repro.LogFreqGrid(1e3, 2e9, 40, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		panic(err)
	}
	weight, xi, err := repro.BuildWeight(syn.Data, syn.Load, 6)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sensitivity samples: %d, weight order: %d\n", len(xi), weight.Order())

	m := violatingModel(3)
	rep, err := repro.EnforcePassivity(m, repro.EnforceOptions{
		Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
		Weight: weight,
		ClampD: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("passive after weighted enforcement: %v\n", rep.Passive)
	// Output:
	// sensitivity samples: 40, weight order: 6
	// passive after weighted enforcement: true
}

func ExampleEnforcePassivityBatch() {
	lib := []*repro.Macromodel{violatingModel(3), violatingModel(4), violatingModel(5)}
	rep, err := repro.EnforcePassivityBatch(lib, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
			ClampD: true,
		},
		Workers: 2, // results are bitwise independent of the worker count
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("models: %d passive: %d failed: %d\n", rep.Models, rep.Passive, rep.Failed)
	fmt.Printf("worst final sigma <= 1: %v\n", rep.WorstSigma <= 1)
	// Output:
	// models: 3 passive: 3 failed: 0
	// worst final sigma <= 1: true
}

func ExampleEnforcePassivityBatch_weights() {
	// Weighted batch enforcement: one sensitivity weight per model (a
	// shared Enforce.Weight works too). Each model's cost Gramian is the
	// closed-form cascade block computed on its worker.
	freqs := repro.LogFreqGrid(1e3, 2e9, 40, false)
	syn, err := repro.GeneratePDN(repro.PDNSmall, freqs, 50)
	if err != nil {
		panic(err)
	}
	weight, _, err := repro.BuildWeight(syn.Data, syn.Load, 6)
	if err != nil {
		panic(err)
	}

	lib := []*repro.Macromodel{violatingModel(3), violatingModel(4)}
	rep, err := repro.EnforcePassivityBatch(lib, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
			ClampD: true,
		},
		Weights: []*repro.Weight{weight, weight},
		Workers: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("models: %d passive: %d failed: %d\n", rep.Models, rep.Passive, rep.Failed)
	// Output:
	// models: 2 passive: 2 failed: 0
}
