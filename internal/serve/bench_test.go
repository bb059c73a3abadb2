package serve

import (
	"context"
	"testing"
	"time"

	repro "repro"
)

// BenchmarkAffinityRouting measures what pole-fingerprint affinity buys
// over random placement on the acceptance workload: a 64-model library
// sharing 8 pole fingerprints (8 residue variants each — a parameter
// sweep), re-checked every round across 4 workers, the monitoring pattern
// passivityd exists for. Per-worker session cache budgets hold ~2
// pole-set caches, the service-realistic setting (a budget always exists;
// 8 fingerprints ÷ 4 workers = 2 per worker). Affinity keeps each
// worker's share of the fingerprints resident, so after the warm-up sweep
// every check is served from its variant's stashed σ layer; random
// placement spreads all 8 fingerprints over every worker and thrashes the
// LRU, so most checks run cold. One op = one full 64-model sweep after a
// shared warm-up sweep; the reported hit-ratio is the ledger's affinity
// rate (0 by construction for the random arm). BENCH_6.json
// tracks the wall-clock ratio (acceptance: affinity ≥ 1.5× lower) and the
// hit rate (≥ 80%).
func BenchmarkAffinityRouting(b *testing.B) {
	const (
		nFP      = 8
		variants = 8
		workers  = 4
	)
	var models []*repro.Macromodel
	for f := 0; f < nFP; f++ {
		base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 4, Poles: 60, Seed: 4200 + int64(f), PeakGain: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < variants; v++ {
			models = append(models, variant(b, base, 1+0.002*float64(v)))
		}
	}
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}

	// Size the per-worker budget off a probe sweep of the whole library:
	// 40% of the full steady-state footprint (every variant's σ layer,
	// active or stashed) accommodates any worker's 2-of-8
	// fingerprint share under affinity — per-fingerprint footprints vary,
	// so sizing off one fingerprint starves workers that draw heavy ones —
	// while a randomly routed worker, which eventually needs all 8
	// resident, keeps thrashing its LRU.
	probe := repro.NewSession()
	for _, m := range models {
		if _, err := probe.Check(context.Background(), m, chk); err != nil {
			b.Fatal(err)
		}
	}
	budget := probe.CacheStats().Bytes * 2 / 5

	for _, arm := range []struct {
		name   string
		random bool
	}{
		{"affinity", false},
		{"random", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			s, err := New(Options{
				Workers:         workers,
				QueueDepth:      len(models) * 2,
				DefaultDeadline: time.Minute,
				CacheBudget:     budget,
			})
			if err != nil {
				b.Fatal(err)
			}
			if arm.random {
				s.led.RandomPlacement(7)
			}
			sweep := func() {
				chans := make([]<-chan *Result, len(models))
				for i, m := range models {
					ch, err := s.Submit(&Job{Kind: JobCheck, Model: m, Check: chk})
					if err != nil {
						b.Fatal(err)
					}
					chans[i] = ch
				}
				for i, ch := range chans {
					if res := <-ch; res.Err != nil {
						b.Fatalf("job %d: %v", i, res.Err)
					}
				}
			}
			sweep() // warm-up: both arms get one sweep of cache population
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.StopTimer()
			b.ReportMetric(s.AffinityHitRatio(), "hit-ratio")
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}
