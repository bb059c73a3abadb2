package passivity

import (
	"testing"

	"repro/internal/rational"
)

// TestEnforceSteadyStateAllocBound: once an enforcement-style loop has
// warmed the cache and the pooled workspaces, re-checking the model (the
// steady-state sweep of Enforce: σ dropped, workspaces warm) must
// spend only the per-check and per-stage bookkeeping — grid assembly,
// stage slices, report — and nothing per frequency. The per-frequency
// kernels themselves are asserted exactly allocation-free in internal/mat
// and internal/rational; here a fixed bound guards the integration. It
// does not grow with the sample count, so one allocation per σ miss or
// per merged grid point (over a hundred of each here) breaks it.
func TestEnforceSteadyStateAllocBound(t *testing.T) {
	m := nonPassiveMIMO(t)
	// Two residue variants of one pole set stand in for successive sweeps:
	// each check binds the cache to residues it did not see last, which
	// drops the active σ layer exactly as an enforcement perturbation does.
	variants := []*rational.Model{m, scaledClone(m, 1-1e-9)}
	cache := NewEvalCache()
	opts := CheckOptions{Method: MethodAdaptive, OmegaMin: 0.1, OmegaMax: 1e4, Cache: cache, Workers: 1}
	first, err := Check(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Samples < 100 {
		t.Fatalf("%d samples: too few for a per-sample allocation to break the bound", first.Samples)
	}
	// One re-bound re-check settles residual warm-up (map capacity).
	if _, err := Check(variants[1], opts); err != nil {
		t.Fatal(err)
	}
	sweep := 0
	allocs := testing.AllocsPerRun(5, func() {
		sweep++
		if _, err := Check(variants[sweep%2], opts); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 80 allocations for 106 samples on this model.
	const bound = 150
	if allocs > bound {
		t.Fatalf("steady-state check allocates %.0f times for %d samples; want ≤ %d",
			allocs, first.Samples, bound)
	}
}

// residueVariants returns n models sharing one pole set, each with its own
// residues (distinct global scales of one synthetic model).
func residueVariants(t *testing.T, n int) []*rational.Model {
	t.Helper()
	base, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*rational.Model, n)
	for i := range out {
		out[i] = scaledClone(base, 1/float64(i+2))
	}
	return out
}

// TestSigmaStashSwap pins the park/restore semantics of the per-variant σ
// stash: cycling A → B → A restores A's exact σ layer, an in-place
// mutation drops the active layer and leaves the stash alone, and
// selecting the active variant again keeps its layer.
func TestSigmaStashSwap(t *testing.T) {
	vs := residueVariants(t, 2)
	a, b := vs[0], vs[1]
	c := NewEvalCache()
	c.Select(a)
	c.sigma[1.0] = 0.5
	c.sigma[2.0] = 0.7

	c.Select(b) // park A, B starts empty
	if n := c.SigmaEntries(); n != 0 {
		t.Fatalf("after swap to empty variant: %d active σ entries, want 0", n)
	}
	if n := c.StashedSigmaEntries(); n != 2 {
		t.Fatalf("stashed σ entries = %d, want 2", n)
	}
	c.sigma[3.0] = 0.9 // B's layer

	c.Select(a) // park B, restore A
	if s, ok := c.sigmaFor(1.0); !ok || s != 0.5 {
		t.Fatalf("restored A layer: σ(1.0) = %v (resident %v), want 0.5", s, ok)
	}
	if s, ok := c.sigmaFor(2.0); !ok || s != 0.7 {
		t.Fatalf("restored A layer: σ(2.0) = %v (resident %v), want 0.7", s, ok)
	}
	if _, ok := c.sigmaFor(3.0); ok {
		t.Fatal("B's σ(3.0) leaked into A's restored layer")
	}
	if n := c.StashedSigmaEntries(); n != 1 {
		t.Fatalf("stashed σ entries = %d, want 1 (B parked)", n)
	}

	// In-place perturbation drops the active layer only.
	applyScale(a, 0.75)
	c.bind(a)
	if n := c.SigmaEntries(); n != 0 {
		t.Fatalf("binding the perturbed model left %d active entries", n)
	}
	if n := c.StashedSigmaEntries(); n != 1 {
		t.Fatalf("binding the perturbed model touched the stash: %d entries, want 1", n)
	}

	// Selecting the active variant again is a no-op.
	c.sigma[4.0] = 0.1
	c.Select(a)
	if _, ok := c.sigmaFor(4.0); !ok {
		t.Fatal("re-selecting the active variant dropped its layer")
	}
}

// TestSigmaStashBound fills the stash past maxSigmaStash and checks the
// oldest layer is the one dropped.
func TestSigmaStashBound(t *testing.T) {
	vs := residueVariants(t, maxSigmaStash+2)
	c := NewEvalCache()
	c.Select(vs[0])
	for i := 0; i <= maxSigmaStash; i++ { // parks maxSigmaStash+1 layers
		c.sigma[float64(i)] = 1
		c.Select(vs[i+1])
	}
	if got := len(c.stash); got != maxSigmaStash {
		t.Fatalf("stash holds %d layers, want %d", got, maxSigmaStash)
	}
	if _, ok := c.stash[residueFingerprint(vs[0])]; ok {
		t.Fatal("oldest stashed layer survived the bound")
	}
	// The most recently parked layer restores intact.
	c.Select(vs[maxSigmaStash])
	if s, ok := c.sigmaFor(float64(maxSigmaStash)); !ok || s != 1 {
		t.Fatalf("restore of newest layer: σ = %v (resident %v), want 1", s, ok)
	}
}

// TestSigmaStashPersistRoundtrip saves a cache carrying stashed variant
// layers and checks each one restores with its exact samples.
func TestSigmaStashPersistRoundtrip(t *testing.T) {
	vs := residueVariants(t, 3)
	c := NewEvalCache()
	for i, s := range []float64{0.25, 0.5, 0.75} {
		c.Select(vs[i])
		c.sigma[1.0] = s
	}

	got, err := DecodeEvalCache(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := got.sigmaFor(1.0); !ok || s != 0.75 {
		t.Fatalf("active layer: σ = %v (resident %v), want 0.75", s, ok)
	}
	if n := got.StashedSigmaEntries(); n != 2 {
		t.Fatalf("stashed entries after reload = %d, want 2", n)
	}
	for i, want := range []float64{0.25, 0.5} {
		got.Select(vs[i])
		if s, ok := got.sigmaFor(1.0); !ok || s != want {
			t.Fatalf("variant %d after reload: σ = %v (resident %v), want %v", i, s, ok, want)
		}
	}
}
