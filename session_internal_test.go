package repro

// White-box tests of the Session redesign's backward-compatibility
// contract: routing a check or enforcement through a Session — cold or
// warm — must produce results bitwise identical to the pre-Session free
// functions, whose bodies called internal/passivity directly with a fresh
// evaluation state per call. The pre-Session behavior is reconstructed
// here from the same internals.

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/passivity"
)

func syntheticViolator(t *testing.T, seed int64) *Macromodel {
	t.Helper()
	m, err := SyntheticMacromodel(SyntheticModelOptions{
		Ports: 2, Poles: 18, Seed: seed, PeakGain: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// preSessionCheck reproduces the pre-Session CheckPassivity body: one
// stateless internal Check with no shared cache.
func preSessionCheck(t *testing.T, m *Macromodel, opts CheckOptions) *PassivityReport {
	t.Helper()
	rep, err := passivity.Check(m.model, opts.internal())
	if err != nil {
		t.Fatal(err)
	}
	return toPublicReport(rep)
}

func TestSessionCheckBitwiseIdenticalToStateless(t *testing.T) {
	for _, method := range []CheckMethod{CheckAdaptive, CheckSweep, CheckHamiltonian} {
		m := syntheticViolator(t, 11)
		opts := CheckOptions{Method: method}
		want := preSessionCheck(t, m, opts)

		s := NewSession(WithWorkers(2))
		cold, err := s.Check(context.Background(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, cold) {
			t.Fatalf("method %d: cold session check differs from stateless check:\n%+v\nvs\n%+v", method, cold, want)
		}
		// Second pass: served largely from the session cache, still bitwise
		// identical (memoized values are recomputations, never approximations).
		warm, err := s.Check(context.Background(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, warm) {
			t.Fatalf("method %d: warm session check differs from stateless check:\n%+v\nvs\n%+v", method, warm, want)
		}
	}
}

func TestSessionEnforceBitwiseIdenticalToStateless(t *testing.T) {
	base := syntheticViolator(t, 23)
	opts := EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}, ClampD: true}

	// Pre-Session path: fresh internal enforcement on a clone.
	mA := base.Clone()
	eopts := passivity.EnforceOptions{
		Check:  opts.Check.internal(),
		ClampD: opts.ClampD,
	}
	repA, err := passivity.Enforce(mA.model, eopts)
	if err != nil {
		t.Fatal(err)
	}
	wantRep := toPublicEnforceReport(repA)

	// Session path, then a warm re-enforcement of another clone: the pole
	// set matches, so the cache is shared, but results must not move.
	s := NewSession(WithWorkers(1))
	for pass, name := range map[int]string{0: "cold", 1: "warm"} {
		mB := base.Clone()
		got, err := s.Enforce(context.Background(), mB, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRep, got) {
			t.Fatalf("pass %d (%s): session enforcement report differs:\n%+v\nvs\n%+v", pass, name, got, wantRep)
		}
		ja, _ := json.Marshal(mA)
		jb, _ := json.Marshal(mB)
		if string(ja) != string(jb) {
			t.Fatalf("pass %d (%s): enforced models differ bitwise", pass, name)
		}
	}
}

// TestSessionEnforceClampDInvalidatesSigma: regression for the warm-cache
// D-clamp hazard. A session Check populates the σ layer from the
// unclamped D; the following Enforce(ClampD) moves D, so those σ samples
// are stale and must be dropped inside Enforce — otherwise the session
// run diverges from the stateless one (and can report passivity from
// pre-clamp data).
func TestSessionEnforceClampDInvalidatesSigma(t *testing.T) {
	base := syntheticViolator(t, 77)
	// Push σmax(D) past the enforcement margin so ClampD must fire.
	p := base.model.D.Rows
	for i := 0; i < p; i++ {
		base.model.D.Set(i, i, base.model.D.At(i, i)+0.4)
	}
	opts := EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}, ClampD: true}

	mA := base.Clone()
	repA, err := passivity.Enforce(mA.model, passivity.EnforceOptions{Check: opts.Check.internal(), ClampD: true})
	if err != nil {
		t.Fatal(err)
	}
	if !repA.DClamped {
		t.Fatal("test premise broken: D was not clamped")
	}
	want := toPublicEnforceReport(repA)

	s := NewSession(WithWorkers(1))
	mB := base.Clone()
	// Warm the σ layer with the UNCLAMPED D.
	if _, err := s.Check(context.Background(), mB, opts.Check); err != nil {
		t.Fatal(err)
	}
	got, err := s.Enforce(context.Background(), mB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("session enforcement after a warm check diverged from the stateless run:\n%+v\nvs\n%+v", got, want)
	}
	ja, _ := json.Marshal(mA)
	jb, _ := json.Marshal(mB)
	if string(ja) != string(jb) {
		t.Fatal("clamped+enforced models differ bitwise between session and stateless paths")
	}
}

// TestSessionCacheSigmaInvalidationOnResidueChange: two models sharing a
// pole set but carrying different residues must not see each other's σ
// samples — the session guards the σ layer with a residue fingerprint.
func TestSessionCacheSigmaInvalidationOnResidueChange(t *testing.T) {
	a := syntheticViolator(t, 31)
	b := a.Clone()
	// Perturb one residue entry of b: same poles, different σ(ω).
	delta := make([]float64, b.model.NumPoles())
	delta[0] = 0.05
	b.model.AddToCVector(0, 0, delta)

	opts := CheckOptions{Method: CheckAdaptive}
	wantA := preSessionCheck(t, a, opts)
	wantB := preSessionCheck(t, b, opts)
	if wantA.MaxSigma == wantB.MaxSigma {
		t.Fatal("test premise broken: perturbed clone has identical σmax")
	}

	s := NewSession(WithWorkers(1))
	gotA, err := s.Check(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := s.Check(context.Background(), b, opts) // same pole fingerprint, stale σ would poison this
	if err != nil {
		t.Fatal(err)
	}
	gotA2, err := s.Check(context.Background(), a, opts) // and back
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantA, gotA) || !reflect.DeepEqual(wantA, gotA2) {
		t.Fatal("session check of model A drifted")
	}
	if !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("session check of perturbed clone differs from stateless check:\n%+v\nvs\n%+v", gotB, wantB)
	}
	if st := s.CacheStats(); st.Models != 1 {
		t.Fatalf("expected one shared pole-set cache, have %d", st.Models)
	}
}

// TestSessionBatchBitwiseIdenticalToStateless: the session batch path with
// fingerprint-keyed caches matches per-model stateless enforcement, on the
// cold first sweep and on a warm repeat over the same (re-cloned) library.
func TestSessionBatchBitwiseIdenticalToStateless(t *testing.T) {
	const n = 4
	orig := make([]*Macromodel, n)
	seq := make([]*Macromodel, n)
	for i := range orig {
		orig[i] = syntheticViolator(t, 100+int64(i))
		seq[i] = orig[i].Clone()
	}
	opts := EnforceOptions{Check: CheckOptions{Method: CheckAdaptive}, ClampD: true}
	wantReps := make([]*EnforceReport, n)
	for i, m := range seq {
		eopts := passivity.EnforceOptions{Check: opts.Check.internal(), ClampD: true}
		rep, err := passivity.Enforce(m.model, eopts)
		if err != nil {
			t.Fatal(err)
		}
		wantReps[i] = toPublicEnforceReport(rep)
	}
	s := NewSession(WithWorkers(1))
	for pass := 0; pass < 2; pass++ {
		models := make([]*Macromodel, n)
		for i := range models {
			models[i] = orig[i].Clone()
		}
		rep, err := s.EnforceBatch(context.Background(), models, BatchEnforceOptions{Enforce: opts, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantReps {
			if rep.Errors[i] != nil {
				t.Fatalf("pass %d model %d: %v", pass, i, rep.Errors[i])
			}
			if !reflect.DeepEqual(wantReps[i], rep.Reports[i]) {
				t.Fatalf("pass %d model %d: session batch report differs:\n%+v\nvs\n%+v", pass, i, rep.Reports[i], wantReps[i])
			}
			ja, _ := json.Marshal(seq[i])
			jb, _ := json.Marshal(models[i])
			if string(ja) != string(jb) {
				t.Fatalf("pass %d model %d: batch-enforced model differs bitwise from sequential", pass, i)
			}
		}
	}
}

// TestSessionSigmaStashKeepsVariantsWarm: cycling a session through
// residue variants of one pole set must restore each variant's σ layer
// from the per-cache stash — the second visit of a variant is served from
// σ samples, not recomputed from the shared basis.
func TestSessionSigmaStashKeepsVariantsWarm(t *testing.T) {
	a := syntheticViolator(t, 47)
	b := a.Clone()
	delta := make([]float64, b.model.NumPoles())
	delta[0] = 0.05
	b.model.AddToCVector(0, 0, delta)

	opts := CheckOptions{Method: CheckAdaptive}
	ctx := context.Background()
	s := NewSession(WithWorkers(1))
	for _, m := range []*Macromodel{a, b} { // first round: both cold
		if _, err := s.Check(ctx, m, opts); err != nil {
			t.Fatal(err)
		}
	}
	fp := PoleFingerprint(a)
	s.mu.Lock()
	e := s.caches[fp]
	if e == nil {
		s.mu.Unlock()
		t.Fatal("no session cache for the shared pole set")
	}
	e.cache.SigmaHits, e.cache.SigmaMisses = 0, 0
	s.mu.Unlock()

	for _, m := range []*Macromodel{a, b} { // second round: σ restored per variant
		if _, err := s.Check(ctx, m, opts); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	hits, misses := e.cache.SigmaHits, e.cache.SigmaMisses
	s.mu.Unlock()
	if hits == 0 {
		t.Fatal("re-checking variants produced no σ hits: stash did not restore their layers")
	}
	if misses > hits/10 {
		t.Fatalf("re-check of stashed variants mostly cold: %d hits, %d misses", hits, misses)
	}
	if st := s.CacheStats(); st.Models != 1 || st.SigmaEntries == 0 {
		t.Fatalf("cache stats after variant cycling: %+v", st)
	}
}
