package passivity

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mat"
)

// BenchmarkEnforce measures a full adaptive-driven enforcement run on the
// nP = 1000 narrow-band synthetic model — the perf_opt target workload: a
// model too large for the Hamiltonian eigensolve whose violation band only
// the adaptive characterizer finds. ReportAllocs tracks the zero-allocation
// workspace goal.
func BenchmarkEnforce(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := SyntheticModel(SyntheticOptions{
			Ports: 4, Poles: 250, Seed: 3, PeakGain: 0.1, NarrowBand: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := Enforce(m, EnforceOptions{
			Check: CheckOptions{Method: MethodAdaptive},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passive {
			b.Fatal("enforcement failed")
		}
	}
}

// BenchmarkEnforceSmall is the fast companion (nP = 80) for quick
// regression sweeps of the same path.
func BenchmarkEnforceSmall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := SyntheticModel(SyntheticOptions{
			Ports: 2, Poles: 40, Seed: 9, PeakGain: 1.1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := Enforce(m, EnforceOptions{
			Check: CheckOptions{Method: MethodAdaptive}, ClampD: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passive {
			b.Fatal("enforcement failed")
		}
	}
}

// BenchmarkCertify measures what the post-convergence certificate adds to
// an enforcement run whose model is already truly passive — the steady
// state of a library service, where certification must be nearly free. At
// nP = 500/1000 (N = 2·n·P ≥ 2000) the pipeline runs tail-bound interval
// certificates with restricted Hamiltonian escalation, never the full
// eigensolve. Compare certify=false (the PR 3 engine) with certify=true;
// the BENCH_4.json acceptance line is <15% wall-clock overhead.
func BenchmarkCertify(b *testing.B) {
	for _, np := range []int{500, 1000} {
		for _, certify := range []bool{false, true} {
			b.Run(fmt.Sprintf("nP=%d/certify=%v", np, certify), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := SyntheticModel(SyntheticOptions{
						Ports: 2, Poles: np / 2, Seed: 17, PeakGain: 0.08, DSigma: 0.75,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					rep, err := Enforce(m, EnforceOptions{
						Check:   CheckOptions{Method: MethodAdaptive},
						Certify: certify,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Passive {
						b.Fatal("model unexpectedly non-passive")
					}
					if certify && (rep.Certificate == nil || !rep.Certificate.Certified) {
						b.Fatalf("certification incomplete: %+v", rep.Certificate)
					}
				}
			})
		}
	}
}

// BenchmarkCounterLargeN measures the contour counter's full Count of a
// crossing-free segment on truly passive models at Hamiltonian dimensions
// N = 600, 2000 and 6000 — the workload the structured diagonal-plus-
// low-rank kernel exists for. The dense complex-LU backend prices one node
// at O(N³), so it only runs where that is affordable (N = 600 always,
// N = 2000 outside -short, never at 6000); the structured backend runs
// everywhere. Both backends must return count 0 — the structured/dense
// wall-clock ratio at equal N is the PR 9 acceptance number.
func BenchmarkCounterLargeN(b *testing.B) {
	for _, np := range []int{150, 500, 1500} { // N = 2·poles·ports = 4·poles
		for _, backend := range []string{"structured", "dense"} {
			n := 4 * np
			b.Run(fmt.Sprintf("N=%d/%s", n, backend), func(b *testing.B) {
				if backend == "dense" {
					if n > 2000 {
						b.Skipf("dense Count at N=%d is O(N³) per node — infeasible", n)
					}
					if n > 600 && testing.Short() {
						b.Skipf("dense Count at N=%d skipped in -short runs", n)
					}
				}
				m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: np, Seed: 17, PeakGain: 0.08, DSigma: 0.75})
				if err != nil {
					b.Fatal(err)
				}
				build := NewIntervalCounter
				if backend == "dense" {
					build = NewIntervalCounterDense
				}
				ic, err := build(m, 1)
				if err != nil {
					b.Fatal(err)
				}
				// A segment above the resonance band (pole resonances sit below
				// 1e4 rad/s ≈ 0.25·bound at N=600, lower fractions beyond):
				// the count is provably zero — the gap-certification workload
				// the counter spends almost all its certification nodes on.
				lo := ic.OmegaBound() * 0.30
				hi := ic.OmegaBound() * 0.31
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cnt, err := ic.Count(context.Background(), lo, hi)
					if err != nil {
						b.Fatal(err)
					}
					if cnt != 0 {
						b.Fatalf("passive model: count %d on [%g, %g]", cnt, lo, hi)
					}
				}
				b.ReportMetric(float64(ic.Nodes())/float64(b.N), "nodes/op")
			})
		}
	}
}

// BenchmarkCounterNode isolates the per-node determinant cost the counter
// pays: one DetPhasePivot evaluation of the shifted level-1 Hamiltonian at
// a fixed off-spectrum point, structured vs dense, N = 600 and 2000.
func BenchmarkCounterNode(b *testing.B) {
	for _, np := range []int{150, 500} {
		n := 4 * np
		m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: np, Seed: 17, PeakGain: 0.08, DSigma: 0.75})
		if err != nil {
			b.Fatal(err)
		}
		s, err := HamiltonianFactorsLevel(m, 1)
		if err != nil {
			b.Fatal(err)
		}
		z := complex(0.1*s.EigenBound(), 0.07*s.EigenBound())
		b.Run(fmt.Sprintf("N=%d/structured", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Perturb z per iteration so the factor cache never hits.
				if _, _, err := s.DetPhasePivot(z + complex(float64(i%7)*1e-9, 0)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/dense", n), func(b *testing.B) {
			if n > 600 && testing.Short() {
				b.Skipf("dense DetPhasePivot at N=%d skipped in -short runs", n)
			}
			d := mat.NewDenseShifted(s.Materialize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.DetPhasePivot(z + complex(float64(i%7)*1e-9, 0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
