package passivity

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rational"
)

func adaptiveWith(c *EvalCache) CheckOptions {
	return CheckOptions{Method: MethodAdaptive, Cache: c, Workers: 1}
}

// TestBindInPlaceMutation: residues scaled in place, or D clamped, between
// two checks through one cache give bit for bit the report of a cache that
// dropped its σ layer and kept the same hot seeds. A cache made to keep
// the stale layer (its residue fingerprint forced to the mutated model's)
// reports differently, so the comparison has teeth.
func TestBindInPlaceMutation(t *testing.T) {
	mutations := []struct {
		name string
		fn   func(*rational.Model)
	}{
		{"scale", func(m *rational.Model) { applyScale(m, 0.8) }},
		{"clampD", func(m *rational.Model) { clampDMatrix(m, 0.5) }},
	}
	for _, mut := range mutations {
		stale := 0
		for seed := int64(1); seed <= 20; seed++ {
			m := memoTestModel(t, seed, 0.9)
			c, s := NewEvalCache(), NewEvalCache()
			for _, cache := range []*EvalCache{c, s} {
				if _, err := Check(m, adaptiveWith(cache)); err != nil {
					t.Fatal(err)
				}
			}
			mut.fn(m)
			ref := NewEvalCache()
			ref.bind(m)
			ref.hot = slices.Clone(c.hot)
			want, err := Check(m, adaptiveWith(ref))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Check(m, adaptiveWith(c))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, seed %d: report through the bound cache differs from a dropped layer:\n%+v\nvs\n%+v", mut.name, seed, got, want)
			}
			s.resFP = residueFingerprint(m)
			if old, err := Check(m, adaptiveWith(s)); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(old, want) {
				stale++
			}
		}
		if stale == 0 {
			t.Fatalf("%s: a stale σ layer changed none of the 20 reports; the test cannot tell", mut.name)
		}
	}
}

// TestBindNewPoleSetStartsOver: a cache that held one pole set (active
// layer, a parked variant, hot seeds) and is handed another gives the
// stateless report and ends up holding exactly what a fresh cache would.
func TestBindNewPoleSetStartsOver(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, b := memoTestModel(t, seed, 0.9), memoTestModel(t, seed+100, 0.9)
		c := NewEvalCache()
		for _, m := range []*rational.Model{a, scaledClone(a, 0.5)} {
			c.Select(m)
			if _, err := Check(m, adaptiveWith(c)); err != nil {
				t.Fatal(err)
			}
		}
		if c.StashedSigmaEntries() == 0 || len(c.hot) == 0 {
			t.Fatalf("seed %d: test premise: no stash (%d) or no hot seeds (%d)", seed, c.StashedSigmaEntries(), len(c.hot))
		}
		got, err := Check(b, adaptiveWith(c))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Check(b, adaptiveWith(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: report differs from the stateless one:\n%+v\nvs\n%+v", seed, got, want)
		}
		fresh := NewEvalCache()
		if _, err := Check(b, adaptiveWith(fresh)); err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint() != PoleFingerprint(b.Poles) || c.StashedSigmaEntries() != 0 ||
			!maps.Equal(c.sigma, fresh.sigma) || !slices.Equal(c.hot, fresh.hot) {
			t.Fatalf("seed %d: cache kept state of the first pole set (%d stashed σ, %d/%d active σ)",
				seed, c.StashedSigmaEntries(), c.SigmaEntries(), fresh.SigmaEntries())
		}
	}
}

// TestSelectForeignPoleSetLeavesCacheUntouched: Select refuses a model of a
// different pole set (what a session sees on a fingerprint collision) and
// changes nothing: σ layers, identity, hot seeds, crossings and counters.
func TestSelectForeignPoleSetLeavesCacheUntouched(t *testing.T) {
	a, b := memoTestModel(t, 5, 0.9), memoTestModel(t, 6, 0.9)
	c := NewEvalCache()
	for _, m := range []*rational.Model{scaledClone(a, 0.5), a} {
		c.Select(m)
		if _, err := Check(m, CheckOptions{Method: MethodHamiltonian, Cache: c}); err != nil {
			t.Fatal(err)
		}
		if _, err := Check(m, adaptiveWith(c)); err != nil {
			t.Fatal(err)
		}
	}
	blob, hot, crossings := c.Encode(), slices.Clone(c.hot), slices.Clone(c.crossings)
	hits, misses, solves := c.SigmaHits, c.SigmaMisses, c.Eigensolves
	if !c.crossingsOK || len(hot) == 0 || c.StashedSigmaEntries() == 0 {
		t.Fatalf("test premise: memo %v, %d hot seeds, %d stashed σ", c.crossingsOK, len(hot), c.StashedSigmaEntries())
	}
	if c.Select(b) {
		t.Fatal("Select accepted a model of another pole set")
	}
	if !bytes.Equal(c.Encode(), blob) || !slices.Equal(c.hot, hot) || !c.crossingsOK ||
		!slices.Equal(c.crossings, crossings) || c.SigmaHits != hits || c.SigmaMisses != misses || c.Eigensolves != solves {
		t.Fatal("refused Select changed the cache")
	}
}
