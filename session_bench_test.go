package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	repro "repro"
)

// BenchmarkSessionWarmCache measures what the Session's persistent
// per-pole-set caches buy on the repeated-library-sweep workload the
// ROADMAP scale-out item targets: the same fixed-pole model library is
// checked (or re-enforced) over and over, as a monitoring service or an
// iterating designer does. "cold" rebuilds the evaluation state every
// sweep (one fresh Session per iteration — the pre-Session behavior of
// the stateless root functions); "warm" reuses one long-lived Session, so
// repeated checks of unchanged models are served from their σ layers.
// Enforcement perturbs the residues every sweep and recomputes its σ
// samples, so enforce-warm tracks enforce-cold. The acceptance target is
// warm ≥ 2× cold on the check workload (BENCH_5.json).
func BenchmarkSessionWarmCache(b *testing.B) {
	models := warmCacheLibrary(b)
	ctx := context.Background()
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}

	sweep := func(b *testing.B, s *repro.Session) {
		for _, m := range models {
			if _, err := s.Check(ctx, m, chk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("check-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, repro.NewSession()) // fresh evaluation state every sweep
		}
	})
	b.Run("check-warm", func(b *testing.B) {
		b.ReportAllocs()
		s := repro.NewSession()
		sweep(b, s) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, s)
		}
	})

	eopts := repro.EnforceOptions{Check: chk, ClampD: true}
	enforceLib := func(b *testing.B, s *repro.Session) {
		for _, m := range models {
			if _, err := s.Enforce(ctx, m.Clone(), eopts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("enforce-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enforceLib(b, repro.NewSession())
		}
	})
	b.Run("enforce-warm", func(b *testing.B) {
		b.ReportAllocs()
		s := repro.NewSession()
		enforceLib(b, s) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enforceLib(b, s)
		}
	})
}

// batchBenchLibrary builds the 32-model library of BenchmarkEnforceBatch:
// deterministic violating models of mixed sizes.
func batchBenchLibrary(b *testing.B) []*repro.Macromodel {
	b.Helper()
	lib := make([]*repro.Macromodel, 32)
	for i := range lib {
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: 20 + 4*(i%4), Seed: int64(60 + i), PeakGain: 1.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		lib[i] = m
	}
	return lib
}

// BenchmarkEnforceBatch measures sharded enforcement of a 32-model library
// at worker counts 1 and GOMAXPROCS, each iteration on a fresh Session so
// every model starts cold. The per-model work is identical at every
// worker count (results are bitwise equal), so the ratio of the two
// timings is the model-level parallel speedup.
func BenchmarkEnforceBatch(b *testing.B) {
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		counts = append(counts, p)
	}
	opts := repro.BatchEnforceOptions{Enforce: repro.EnforceOptions{Check: repro.CheckOptions{Method: repro.CheckAdaptive}}}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			opts.Workers = workers
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				lib := batchBenchLibrary(b)
				s := repro.NewSession()
				b.StartTimer()
				rep, err := s.EnforceBatch(context.Background(), lib, opts)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failed != 0 || rep.Passive != len(lib) {
					b.Fatalf("batch enforcement failed: %d failed, %d passive", rep.Failed, rep.Passive)
				}
			}
		})
	}
}
