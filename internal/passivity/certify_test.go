package passivity

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mat"
)

// plainTailBound is the pre-refactor per-term bound kept as the test
// reference: every pole contributes its interval supremum independently.
func plainTailBound(feats []poleFeature, dSigma, w0, w1 float64) float64 {
	sum := dSigma
	for i := range feats {
		f := &feats[i]
		d := 0.0
		if f.wr < w0 {
			d = w0 - f.wr
		} else if f.wr > w1 {
			d = f.wr - w1
		}
		sum += f.rnorm / math.Sqrt(f.gamma*f.gamma+d*d)
	}
	return sum
}

// TestTailBoundTightRigorous checks the two defining properties of the
// tightened bound on random models and random intervals: it never falls
// below the true σ(ω) anywhere in the interval, and it never exceeds the
// plain per-term bound it replaces.
func TestTailBoundTightRigorous(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		model, err := SyntheticModel(SyntheticOptions{
			Ports: 2, Poles: 16, Seed: int64(300 + trial), PeakGain: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ws := &checkWorkspace{}
		feats := make([]poleFeature, 0, len(model.Poles))
		for k := range model.Poles {
			feats = append(feats, poleFeatureOf(model, k, ws))
		}
		sorted := append([]poleFeature(nil), feats...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].wr < sorted[b].wr })
		scan := newBoundScanner(sorted)
		dS := mat.MaxSingularValue(mat.RealToComplex(model.D))
		for iv := 0; iv < 20; iv++ {
			w0 := math.Pow(10, 4*rng.Float64())
			w1 := w0 * math.Pow(10, rng.Float64())
			// An infinite limit disables both early exits: the full scan
			// yields the exact tightened value, comparable to the plain sum.
			tight := scan.tailBound(dS, math.Inf(1), w0, w1)
			plain := plainTailBound(feats, dS, w0, w1)
			if tight > plain*(1+1e-12) {
				t.Fatalf("trial %d: tightened bound %g exceeds plain bound %g on [%g, %g]", trial, tight, plain, w0, w1)
			}
			for s := 0; s <= 8; s++ {
				w := w0 * math.Pow(w1/w0, float64(s)/8)
				if sv := ws.sigmaAt(model, w); sv > tight*(1+1e-12) {
					t.Fatalf("trial %d: σ(%g) = %g exceeds tightened bound %g on [%g, %g]", trial, w, sv, tight, w0, w1)
				}
			}
		}
	}
}

func TestHamiltonianCrossingsLevel(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 10, Seed: 5, PeakGain: 0.6, DSigma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ws := &checkWorkspace{}
	for _, gamma := range []float64{0.8, 0.95, 1.0} {
		crossings, err := HamiltonianCrossingsLevel(model, gamma)
		if err != nil {
			t.Fatalf("level %g: %v", gamma, err)
		}
		for _, w := range crossings {
			if sv := ws.sigmaAt(model, w); math.Abs(sv-gamma) > 1e-6*gamma {
				t.Fatalf("level %g: reported crossing at ω=%g has σ=%g", gamma, w, sv)
			}
		}
	}
}

func TestCertifyPassiveModelSmall(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 12, Seed: 7, PeakGain: 0.03, DSigma: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Certify(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || len(cert.Violations) != 0 {
		t.Fatalf("passive model not certified: %+v", cert)
	}
	if cert.Stage == "" || len(cert.Stages) == 0 {
		t.Fatalf("certificate missing stage accounting: %+v", cert)
	}
}

func TestCertifyFindsNarrowViolation(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 12, Seed: 3, NarrowBand: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the model really is non-passive (oracle).
	crossings, err := HamiltonianCrossings(model)
	if err != nil {
		t.Fatal(err)
	}
	if len(crossings) == 0 {
		t.Skip("gadget did not produce a violation at this seed")
	}
	cert, err := Certify(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Certified || len(cert.Violations) == 0 {
		t.Fatalf("violating model certified passive: %+v", cert)
	}
	if cert.Stage != StageHamiltonian {
		t.Fatalf("small model should be settled by the full eigentest, got %q", cert.Stage)
	}
	ws := &checkWorkspace{}
	for _, v := range cert.Violations {
		if sv := ws.sigmaAt(model, v.OmegaPeak); sv <= 1 {
			t.Fatalf("certified violation at ω=%g has σ=%g ≤ 1", v.OmegaPeak, sv)
		}
	}
}

// largeChain is the default pipeline's chain past the full eigentest's
// gate (N > 600), built explicitly so that small models take it.
func largeChain() *Pipeline {
	return NewPipeline(TailBoundCertifier(), LipschitzCertifier(), RestrictedHamiltonianCertifier(), CounterCertifier())
}

func TestCertifyLargeModelPipeline(t *testing.T) {
	// The large-model chain tail-bound → lipschitz → restricted →
	// contour-counter on a small model: the cheap σ-anchored sweep catches
	// the gadget violation before any eigensolve.
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 40, Seed: 9, NarrowBand: true})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := largeChain().Run(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Violations) == 0 {
		t.Fatalf("large-model pipeline missed the gadget violation: %+v", cert)
	}
	// The σ-anchored sweep either samples inside the narrow band itself or
	// leaves a width-floor sliver that the restricted eigentest proves;
	// both are escalation working as designed.
	if cert.Stage != StageLipschitz && cert.Stage != StageRestricted {
		t.Fatalf("expected %q or %q stage verdict, got %q", StageLipschitz, StageRestricted, cert.Stage)
	}
	ws := &checkWorkspace{}
	for _, v := range cert.Violations {
		if sv := ws.sigmaAt(model, v.OmegaPeak); sv <= 1 {
			t.Fatalf("certified violation at ω=%g has σ=%g ≤ 1", v.OmegaPeak, sv)
		}
	}

	// A passive model through the same pipeline must certify without ever
	// solving a full-size eigenproblem.
	passive, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 40, Seed: 10, PeakGain: 0.03, DSigma: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	cert, err = largeChain().Run(passive, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || len(cert.Violations) != 0 {
		t.Fatalf("large-model pipeline failed to certify a passive model: %+v", cert)
	}
	if cert.EigenDim >= 2*passive.NumPoles()*passive.Ports() {
		t.Fatalf("certification solved a full-size eigenproblem (dim %d)", cert.EigenDim)
	}
}

// TestCertifyWarmCacheAnchors: certification behind a check that warmed
// the cache anchors its sweep on the cached σ samples, and must still
// prove the gadget violation at frequencies where σ really exceeds one.
func TestCertifyWarmCacheAnchors(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 40, Seed: 9, NarrowBand: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := CheckOptions{Method: MethodAdaptive, Cache: NewEvalCache()}
	opts.defaults(model)
	if _, err := Check(model, opts); err != nil {
		t.Fatal(err)
	}
	cert, err := largeChain().Run(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Violations) == 0 {
		t.Fatalf("warm-cache certification missed the gadget violation: %+v", cert)
	}
	ws := &checkWorkspace{}
	for _, v := range cert.Violations {
		if sv := ws.sigmaAt(model, v.OmegaPeak); sv <= 1 {
			t.Fatalf("violation at ω=%g has σ=%g ≤ 1", v.OmegaPeak, sv)
		}
	}
}

func TestCertifyRestrictedStageDirect(t *testing.T) {
	// Compose the restricted eigentest directly behind the tail bound (no
	// σ-anchored sweep): it must prove the gadget violation on a reduced
	// model and confirm it on the full one.
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 40, Seed: 9, NarrowBand: true})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(TailBoundCertifier(), RestrictedHamiltonianCertifier())
	cert, err := p.Run(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Violations) == 0 {
		t.Fatalf("restricted stage missed the gadget violation: %+v", cert)
	}
	if cert.Stage != StageRestricted {
		t.Fatalf("expected %q stage verdict, got %q", StageRestricted, cert.Stage)
	}
	ws := &checkWorkspace{}
	for _, v := range cert.Violations {
		if sv := ws.sigmaAt(model, v.OmegaPeak); sv <= 1 {
			t.Fatalf("restricted violation at ω=%g has σ=%g ≤ 1", v.OmegaPeak, sv)
		}
	}
}

func TestCertifyDeterministic(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 24, Seed: 21, PeakGain: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Certify(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Certify(model, CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("certification is not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

func TestEnforceCertifyProducesCertificate(t *testing.T) {
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 12, Seed: 3, NarrowBand: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Enforce(model, EnforceOptions{Certify: true})
	if err != nil {
		t.Fatalf("certified enforcement failed: %v", err)
	}
	if !rep.Passive {
		t.Fatal("certified enforcement did not converge")
	}
	if rep.Certificate == nil || !rep.Certificate.Certified {
		t.Fatalf("missing or unconfirmed certificate: %+v", rep.Certificate)
	}
	// The certified result must satisfy the exact oracle.
	if cr, err := HamiltonianCrossings(model); err != nil {
		t.Fatal(err)
	} else if len(cr) > 0 {
		ws := &checkWorkspace{}
		for _, w := range cr {
			if sv := ws.sigmaAt(model, w); sv > 1+1e-9 {
				t.Fatalf("oracle finds σ=%g at ω=%g after certified enforcement", sv, w)
			}
		}
	}
}

// TestLargeChainOracleAgreement checks the large-model chain (tail-bound →
// lipschitz → hamiltonian-restricted → contour-counter, built explicitly)
// against the dense Hamiltonian oracle on a corpus of passive,
// violating, narrow-band and enforced synthetic models: every model the
// oracle calls non-passive must come back with violations, every passive
// one Certified with nothing left open.
func TestLargeChainOracleAgreement(t *testing.T) {
	const perKind = 15
	kinds := []string{"passive", "violating", "narrow-band", "enforced"}
	counts := map[bool]int{}
	for k, kind := range kinds {
		for i := 0; i < perKind; i++ {
			seed := int64(500 + 100*k + i)
			opts := SyntheticOptions{Ports: 2 + i%2, Poles: 10 + 4*(i%5), Seed: seed}
			switch kind {
			case "passive":
				opts.PeakGain = 0.05
			case "violating", "enforced":
				opts.PeakGain = 0.4
			case "narrow-band":
				opts.NarrowBand = true
			}
			model, err := SyntheticModel(opts)
			if err != nil {
				t.Fatal(err)
			}
			if kind == "enforced" {
				if _, err := Enforce(model, EnforceOptions{}); err != nil {
					t.Fatalf("%s seed %d: %v", kind, seed, err)
				}
			}
			oracle, err := Check(model, CheckOptions{Method: MethodHamiltonian})
			if err != nil {
				t.Fatalf("%s seed %d: oracle: %v", kind, seed, err)
			}
			cert, err := largeChain().Run(model, CheckOptions{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			switch {
			case !oracle.Passive && len(cert.Violations) == 0:
				t.Errorf("%s seed %d: oracle finds σ=%g at ω=%g, chain found no violation (certified=%v open=%v)",
					kind, seed, oracle.MaxSigma, oracle.MaxOmega, cert.Certified, cert.Open)
			case oracle.Passive && (!cert.Certified || cert.Open != nil):
				t.Errorf("%s seed %d: passive model not certified: certified=%v violations=%d open=%v",
					kind, seed, cert.Certified, len(cert.Violations), cert.Open)
			}
			counts[oracle.Passive]++
		}
	}
	if counts[true] == 0 || counts[false] == 0 {
		t.Fatalf("corpus lacks a verdict class: %d passive, %d non-passive", counts[true], counts[false])
	}
	t.Logf("oracle agreement: %d passive, %d non-passive models", counts[true], counts[false])
}
