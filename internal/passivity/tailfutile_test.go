package passivity

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mat"
	"repro/internal/rational"
)

// scannerOf builds the certifier's resonance-sorted bound scanner and
// σ(D) for model, as Pipeline.Run does.
func scannerOf(model *rational.Model) (*boundScanner, float64) {
	ws := &checkWorkspace{}
	feats := make([]poleFeature, 0, len(model.Poles))
	for k := range model.Poles {
		feats = append(feats, poleFeatureOf(model, k, ws))
	}
	sort.Slice(feats, func(a, b int) bool { return feats[a].wr < feats[b].wr })
	return newBoundScanner(feats), mat.MaxSingularValue(mat.RealToComplex(model.D))
}

// TestTailFutileBisectionSkipped: on a passive 2-port, 500-pole model the
// magnitude-sum bound cannot settle the dense pole band at any depth.
// Skipping the bisection that floorExceeds proves futile must leave the
// tail stage's result unchanged while cutting its tailBound calls at
// least fivefold, and the full certificate must stay Certified with no
// open interval.
func TestTailFutileBisectionSkipped(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{
		Ports: 2, Poles: 500, Seed: 101, PeakGain: 0.04, DSigma: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan, dS := scannerOf(model)
	limit := 1 + passivityTol
	run := func(futile func(lo, hi float64) bool) ([]CertInterval, int, int) {
		calls := 0
		rem, certified := tailBisect(axisPartition(model), func(lo, hi float64) bool {
			calls++
			return scan.tailBound(dS, limit, lo, hi) <= limit
		}, futile)
		return rem, certified, calls
	}
	oldRem, oldCert, oldCalls := run(func(lo, hi float64) bool { return false })
	newRem, newCert, newCalls := run(func(lo, hi float64) bool { return scan.floorExceeds(dS, limit, lo, hi) })
	if newCert != oldCert || !reflect.DeepEqual(newRem, oldRem) {
		t.Fatalf("skipping futile bisection changed the tail stage: certified %d → %d, open %v → %v",
			oldCert, newCert, oldRem, newRem)
	}
	if oldCalls < 5*newCalls {
		t.Fatalf("tailBound calls %d → %d, want a fivefold cut", oldCalls, newCalls)
	}
	t.Logf("tailBound calls %d → %d, %d intervals certified by the tail stage", oldCalls, newCalls, newCert)

	cert, err := Certify(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || len(cert.Open) != 0 {
		t.Fatalf("certificate: certified=%v with %d open intervals", cert.Certified, len(cert.Open))
	}
}

// TestFloorExceedsIsSound: whenever floorExceeds declares an interval
// futile, tailBound fails on every subinterval a depth-3 bisection could
// produce, on random models spanning passive to violating.
func TestFloorExceedsIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	futile := 0
	for trial := 0; trial < 12; trial++ {
		model, err := SyntheticModel(SyntheticOptions{
			Ports: 2, Poles: 40, Seed: int64(500 + trial), PeakGain: 0.02 + 0.05*float64(trial%4), DSigma: 0.6,
		})
		if err != nil {
			t.Fatal(err)
		}
		scan, dS := scannerOf(model)
		limit := 1 + passivityTol
		for iv := 0; iv < 40; iv++ {
			w0 := math.Pow(10, 4*rng.Float64())
			w1 := w0 * math.Pow(10, 0.5*rng.Float64())
			if !scan.floorExceeds(dS, limit, w0, w1) {
				continue
			}
			futile++
			ivs := []CertInterval{{Lo: w0, Hi: w1}}
			for depth := 0; depth <= tailMaxDepth; depth++ {
				var next []CertInterval
				for _, c := range ivs {
					if b := scan.tailBound(dS, limit, c.Lo, c.Hi); b <= limit {
						t.Fatalf("trial %d: [%g, %g] judged futile, but its subinterval [%g, %g] certifies (bound %g)",
							trial, w0, w1, c.Lo, c.Hi, b)
					}
					mid := certMidpoint(c.Lo, c.Hi)
					next = append(next, CertInterval{Lo: c.Lo, Hi: mid}, CertInterval{Lo: mid, Hi: c.Hi})
				}
				ivs = next
			}
		}
	}
	if futile == 0 {
		t.Fatal("no interval was judged futile; the test exercised nothing")
	}
}
