package hypothesis

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// trialFor builds a Run function returning a fixed primary per seed.
func trialFor(vals map[int64]float64) func(int64) (Trial, error) {
	return func(seed int64) (Trial, error) {
		v, ok := vals[seed]
		if !ok {
			return Trial{}, fmt.Errorf("unexpected seed %d", seed)
		}
		return Trial{Primary: v, Pass: true, Metrics: map[string]float64{"v": v}}, nil
	}
}

func TestDeterministicVerdicts(t *testing.T) {
	pass := Spec{
		ID: "det-pass", Title: "t", Claim: "c", Class: Deterministic, Subtype: Invariant,
		Primary: "violations",
		Run:     func(int64) (Trial, error) { return Trial{Pass: true}, nil },
	}
	f, err := Evaluate(&pass)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Confirmed {
		t.Fatalf("passing invariant judged %s: %s", f.Verdict, f.Reason)
	}
	if len(f.Seeds) != 1 {
		t.Fatalf("deterministic spec ran %d seeds, one suffices", len(f.Seeds))
	}

	fail := pass
	fail.ID = "det-fail"
	fail.Run = func(int64) (Trial, error) { return Trial{Pass: false}, nil }
	f, err = Evaluate(&fail)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Refuted {
		t.Fatalf("failing invariant judged %s — a deterministic failure is always a bug", f.Verdict)
	}
}

func TestStatisticalSeedFloor(t *testing.T) {
	s := Spec{
		ID: "too-few", Title: "t", Claim: "c", Class: Statistical, Subtype: Dominance,
		Primary: "ratio", Seeds: []int64{1, 2},
		Run: func(int64) (Trial, error) { return Trial{Primary: 2}, nil },
	}
	if _, err := Evaluate(&s); err == nil {
		t.Fatal("statistical spec with 2 seeds accepted; the standards demand ≥3")
	}
}

func TestDominanceVerdicts(t *testing.T) {
	cases := []struct {
		vals map[int64]float64
		want Verdict
	}{
		// >20% effect on every seed.
		{map[int64]float64{42: 1.7, 123: 2.8, 456: 1.25}, Confirmed},
		// One contradicting seed refutes, however strong the others.
		{map[int64]float64{42: 3.0, 123: 0.97, 456: 2.5}, Refuted},
		// Directionally consistent but one seed under the threshold.
		{map[int64]float64{42: 1.5, 123: 1.08, 456: 1.4}, Inconclusive},
	}
	for i, c := range cases {
		s := Spec{
			ID: fmt.Sprintf("dom-%d", i), Title: "t", Claim: "c",
			Class: Statistical, Subtype: Dominance, Primary: "ratio",
			Run: trialFor(c.vals),
		}
		f, err := Evaluate(&s)
		if err != nil {
			t.Fatal(err)
		}
		if f.Verdict != c.want {
			t.Fatalf("case %d (%v): verdict %s (%s), want %s", i, c.vals, f.Verdict, f.Reason, c.want)
		}
	}
}

// TestFailedSeedRefutesStatistical pins that a statistical trial whose
// per-seed check fails refutes the hypothesis even when its primary metric
// alone would confirm it (e.g. adaptive cheaper than the sweep, but with a
// different passivity verdict).
func TestFailedSeedRefutesStatistical(t *testing.T) {
	for _, c := range []struct {
		subtype   Subtype
		primary   float64
		threshold float64
	}{
		{Dominance, 2, 0},
		{Bounded, 0.1, 0.25},
		{Equivalence, 1, 0},
	} {
		s := Spec{
			ID: "failed-seed-" + string(c.subtype), Title: "t", Claim: "c",
			Class: Statistical, Subtype: c.subtype, Primary: "m", Threshold: c.threshold,
			Run: func(seed int64) (Trial, error) {
				return Trial{Primary: c.primary, Pass: seed != 123}, nil
			},
		}
		f, err := Evaluate(&s)
		if err != nil {
			t.Fatal(err)
		}
		if f.Verdict != Refuted {
			t.Fatalf("%s with a failed seed judged %s: %s", c.subtype, f.Verdict, f.Reason)
		}
	}
}

func TestBoundedVerdicts(t *testing.T) {
	s := Spec{
		ID: "bounded", Title: "t", Claim: "c", Class: Statistical, Subtype: Bounded,
		Primary: "overhead", Threshold: 0.25,
		Run: trialFor(map[int64]float64{42: 0.11, 123: 0.09, 456: 0.24}),
	}
	f, err := Evaluate(&s)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Confirmed {
		t.Fatalf("bounded within threshold judged %s: %s", f.Verdict, f.Reason)
	}
	over := s
	over.ID = "bounded-over"
	over.Run = trialFor(map[int64]float64{42: 0.11, 123: 0.31, 456: 0.24})
	if f, err = Evaluate(&over); err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Refuted {
		t.Fatalf("bound exceeded on one seed judged %s", f.Verdict)
	}
	noBound := s
	noBound.ID = "bounded-nothr"
	noBound.Threshold = 0
	if _, err := Evaluate(&noBound); err == nil {
		t.Fatal("bounded spec without explicit Threshold accepted")
	}
}

func TestEquivalenceVerdicts(t *testing.T) {
	s := Spec{
		ID: "equiv", Title: "t", Claim: "c", Class: Statistical, Subtype: Equivalence,
		Primary: "ratio",
		Run:     trialFor(map[int64]float64{42: 1.01, 123: 0.98, 456: 1.04}),
	}
	f, err := Evaluate(&s)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verdict != Confirmed {
		t.Fatalf("within the ±5%% band judged %s: %s", f.Verdict, f.Reason)
	}
}

func TestFindingArtifactRoundTrip(t *testing.T) {
	s := Spec{
		ID: "artifact", Title: "Artifact round-trip", Claim: "writes survive reads",
		Class: Statistical, Subtype: Dominance, Primary: "ratio",
		Run: trialFor(map[int64]float64{42: 1.7, 123: 2.8, 456: 1.25}),
	}
	f, err := Evaluate(&s)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsPath, err := f.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadFinding(jsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Fatalf("finding did not survive the JSON round-trip:\nout: %+v\nback: %+v", f, back)
	}
	md := f.Markdown()
	for _, want := range []string{"# FINDINGS: Artifact round-trip", "## Hypothesis", "## Verdict: CONFIRMED", "## Per-seed results", "| 123 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if _, err := ReadFinding(filepath.Join(dir, "FINDINGS-artifact.md")); err == nil {
		t.Fatal("reading the markdown artifact as JSON should fail")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	mk := func(id string) Spec {
		return Spec{
			ID: id, Title: id, Claim: "c", Class: Deterministic, Subtype: Invariant,
			Run: func(int64) (Trial, error) { return Trial{Pass: true}, nil },
		}
	}
	for _, id := range []string{"b-second", "a-first"} {
		if err := r.Register(mk(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(mk("b-second")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	specs := r.Specs()
	if len(specs) != 2 || specs[0].ID != "b-second" || specs[1].ID != "a-first" {
		t.Fatalf("registration order not preserved: %v", []string{specs[0].ID, specs[1].ID})
	}
	if _, ok := r.Get("a-first"); !ok {
		t.Fatal("Get missed a registered spec")
	}
	bad := mk("bad-class")
	bad.Class = "quantum"
	if err := r.Register(bad); err == nil {
		t.Fatal("invalid class accepted at registration")
	}
}
