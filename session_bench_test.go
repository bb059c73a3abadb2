package repro_test

import (
	"context"
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
