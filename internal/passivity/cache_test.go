package passivity

import "testing"

// TestEnforceSteadyStateAllocBound: once an enforcement-style loop has
// warmed the cache and workspace pool, re-checking the model (the
// steady-state sweep of Enforce: σ invalidated, workspaces warm) must
// spend only the per-check and per-stage bookkeeping — grid assembly,
// stage slices, report — and nothing per frequency. The per-frequency
// kernels themselves are asserted exactly allocation-free in internal/mat
// and internal/rational; here a fixed bound guards the integration. It
// does not grow with the sample count, so one allocation per σ miss or
// per merged grid point (over a hundred of each here) breaks it.
func TestEnforceSteadyStateAllocBound(t *testing.T) {
	m := nonPassiveMIMO(t)
	cache := NewEvalCache()
	opts := CheckOptions{Method: MethodAdaptive, OmegaMin: 0.1, OmegaMax: 1e4, Cache: cache, Workers: 1,
		work: newWorkspacePool()}
	first, err := Check(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Samples < 100 {
		t.Fatalf("%d samples: too few for a per-sample allocation to break the bound", first.Samples)
	}
	// One invalidated re-check settles residual warm-up (map capacity).
	cache.InvalidateSigma()
	if _, err := Check(m, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		cache.InvalidateSigma()
		if _, err := Check(m, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 112 allocations for 106 samples on this model.
	const bound = 150
	if allocs > bound {
		t.Fatalf("steady-state check allocates %.0f times for %d samples; want ≤ %d",
			allocs, first.Samples, bound)
	}
}

// TestSigmaStashSwap pins the park/restore semantics of the per-variant σ
// stash: cycling A → B → A restores A's exact σ layer, the bound drops
// the least-recently-parked layer, and InvalidateSigma leaves the stash
// alone.
func TestSigmaStashSwap(t *testing.T) {
	c := NewEvalCache()
	const fpA, fpB = 0xa, 0xb
	c.sigma[1.0] = 0.5
	c.sigma[2.0] = 0.7

	c.SwapSigma(fpA, fpB) // park A, B starts empty
	if n := c.SigmaEntries(); n != 0 {
		t.Fatalf("after swap to empty variant: %d active σ entries, want 0", n)
	}
	if n := c.StashedSigmaEntries(); n != 2 {
		t.Fatalf("stashed σ entries = %d, want 2", n)
	}
	c.sigma[3.0] = 0.9 // B's layer

	c.SwapSigma(fpB, fpA) // park B, restore A
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
	c.InvalidateSigma()
	if n := c.SigmaEntries(); n != 0 {
		t.Fatalf("InvalidateSigma left %d active entries", n)
	}
	if n := c.StashedSigmaEntries(); n != 1 {
		t.Fatalf("InvalidateSigma touched the stash: %d entries, want 1", n)
	}

	// Same-fingerprint swap is a no-op.
	c.sigma[4.0] = 0.1
	c.SwapSigma(fpA, fpA)
	if _, ok := c.sigmaFor(4.0); !ok {
		t.Fatal("same-key swap dropped the active layer")
	}
}

// TestSigmaStashBound fills the stash past maxSigmaStash and checks the
// oldest layer is the one dropped.
func TestSigmaStashBound(t *testing.T) {
	c := NewEvalCache()
	for i := 0; i <= maxSigmaStash; i++ { // parks maxSigmaStash+1 layers
		c.sigma[float64(i)] = 1
		c.SwapSigma(uint64(i), uint64(i)+1<<32)
	}
	if got := len(c.stash); got != maxSigmaStash {
		t.Fatalf("stash holds %d layers, want %d", got, maxSigmaStash)
	}
	if _, ok := c.stash[0]; ok {
		t.Fatal("oldest stashed layer survived the bound")
	}
	// The most recently parked layer restores intact.
	c.SwapSigma(9999, uint64(maxSigmaStash))
	if s, ok := c.sigmaFor(float64(maxSigmaStash)); !ok || s != 1 {
		t.Fatalf("restore of newest layer: σ = %v (resident %v), want 1", s, ok)
	}
}

// TestSigmaStashPersistRoundtrip saves a cache carrying stashed variant
// layers and checks each one restores with its exact samples.
func TestSigmaStashPersistRoundtrip(t *testing.T) {
	c := NewEvalCache()
	c.sigma[1.0] = 0.25
	c.SwapSigma(0xaa, 0xbb)
	c.sigma[1.0] = 0.5
	c.SwapSigma(0xbb, 0xcc)
	c.sigma[1.0] = 0.75

	blob, err := DecodeCacheBlob((&CacheBlob{Cache: c}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := blob.Cache
	if s, ok := got.sigmaFor(1.0); !ok || s != 0.75 {
		t.Fatalf("active layer: σ = %v (resident %v), want 0.75", s, ok)
	}
	if n := got.StashedSigmaEntries(); n != 2 {
		t.Fatalf("stashed entries after reload = %d, want 2", n)
	}
	for _, v := range []struct {
		key  uint64
		want float64
	}{{0xaa, 0.25}, {0xbb, 0.5}} {
		got.SwapSigma(0xffff+v.key, v.key)
		if s, ok := got.sigmaFor(1.0); !ok || s != v.want {
			t.Fatalf("variant %#x after reload: σ = %v (resident %v), want %v", v.key, s, ok, v.want)
		}
	}
}
