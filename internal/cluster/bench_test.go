package cluster

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// BenchmarkClusterAffinityPlacement measures what fingerprint-affinity
// placement plus cache-file warm-state transfer buy a 2-host cluster over
// random placement — and what the cluster buys over one identically-sized
// host — on the acceptance workload: a 64-model library sharing 8 pole
// fingerprints, re-swept every round (the monitoring pattern the service
// exists for).
//
// Budgets are sized so the library outgrows one host: each host's two
// worker Sessions get 30% of the full steady-state cache footprint, so a
// host can keep ~4–5 of the 8 fingerprints warm but never all 8. Affinity
// placement splits the fingerprints across the two hosts and ships caches
// with stolen work, so after the warm-up sweep nearly every lease lands
// warm; random placement makes each host cycle through all 8
// fingerprints and thrash its LRUs; the single host has nowhere to put
// half the
// library no matter how it routes. One op = one full 64-model sweep after
// a shared warm-up sweep; warm-lease-ratio is the coordinator's
// warm-placement rate (the warm-transfer hit rate BENCH_10.json records).
// Acceptance: affinity beats random by ≥ 1.5× on the warm re-sweep.
func BenchmarkClusterAffinityPlacement(b *testing.B) {
	const (
		nFP            = 8
		variants       = 8
		workersPerHost = 2
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
	blobs := make([]json.RawMessage, len(models))
	for i, m := range models {
		blobs[i] = modelJSON(b, m)
	}
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}
	chkSpec := serve.CheckSpec{Method: "adaptive"}

	// Probe the full steady-state footprint once; 30% of it per worker
	// Session gives each 2-worker host ~60% of the library's caches —
	// enough for an affinity-placed half, binding for anything more.
	probe := repro.NewSession()
	for _, m := range models {
		if _, err := probe.Check(context.Background(), m, chk); err != nil {
			b.Fatal(err)
		}
	}
	budget := probe.CacheStats().Bytes * 3 / 10

	newBenchHost := func(b *testing.B) *serve.Server {
		s, err := serve.New(serve.Options{
			Workers:         workersPerHost,
			QueueDepth:      len(models) * 2,
			DefaultDeadline: time.Minute,
			CacheBudget:     budget,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	drainHost := func(b *testing.B, s *serve.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}

	// Single-host baseline: the same hardware as one cluster member,
	// carrying the whole library alone.
	b.Run("single-host", func(b *testing.B) {
		s := newBenchHost(b)
		sweep := func() {
			chans := make([]<-chan *serve.Result, len(models))
			for i, m := range models {
				ch, err := s.Submit(&serve.Job{Kind: serve.JobCheck, Model: m, Check: chk})
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
		sweep()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep()
		}
		b.StopTimer()
		b.ReportMetric(s.AffinityHitRatio(), "hit-ratio")
		drainHost(b, s)
	})

	for _, arm := range []struct {
		name   string
		random bool
	}{
		{"cluster-2/affinity", false},
		{"cluster-2/random", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			c := NewCoordinator(Options{MaxPending: len(models) * 2})
			defer c.Close()
			if arm.random {
				c.led.RandomPlacement(7)
			}
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()
			hosts := []*serve.Server{newBenchHost(b), newBenchHost(b)}
			agents := make([]*Agent, len(hosts))
			for i, h := range hosts {
				a, err := NewAgent(h, AgentOptions{
					Coordinator: ts.URL,
					Name:        []string{"host-a", "host-b"}[i],
					Concurrency: workersPerHost,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := a.Start(context.Background()); err != nil {
					b.Fatal(err)
				}
				agents[i] = a
			}

			sweep := func() {
				items := make([]*item, len(models))
				for i := range models {
					it, err := c.Submit(serve.JobCheck, blobs[i], chkSpec, serve.EnforceSpec{}, 0, 3)
					if err != nil {
						b.Fatal(err)
					}
					items[i] = it
				}
				for i, it := range items {
					<-it.done
					if it.status != 200 {
						b.Fatalf("job %d: HTTP %d: %s", i, it.status, it.resp.Error)
					}
				}
			}
			sweep() // warm-up: placement, caches and the blob store populate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.StopTimer()
			b.ReportMetric(c.WarmLeaseRatio(), "warm-lease-ratio")
			b.ReportMetric(float64(c.StealsTotal()), "steals")
			for _, a := range agents {
				a.Stop()
			}
			for _, h := range hosts {
				drainHost(b, h)
			}
		})
	}
}
