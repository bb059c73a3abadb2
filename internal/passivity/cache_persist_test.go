package passivity

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// primeCache runs a check with a cache so its σ layer carries real entries.
func primeCache(t *testing.T) *EvalCache {
	t.Helper()
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := NewEvalCache()
	if _, err := Check(model, CheckOptions{Method: MethodAdaptive, Cache: c, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	c.hot = append(c.hot, 3.5, 88)
	if c.SigmaEntries() == 0 {
		t.Fatal("priming left an empty σ layer")
	}
	return c
}

// TestEvalCacheSaveLoadRoundtrip: the blob carries the model identity
// (poles and both fingerprints) and the σ layer exactly; the hot seeds
// stay behind, and the decoded cache re-encodes byte for byte.
func TestEvalCacheSaveLoadRoundtrip(t *testing.T) {
	c := primeCache(t)
	blob := c.Encode()
	gc, err := DecodeEvalCache(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !gc.bound || gc.poleFP != c.poleFP || gc.resFP != c.resFP || !slices.Equal(gc.poles, c.poles) {
		t.Fatalf("identity %016x/%016x/%d poles (bound %v), want %016x/%016x/%d",
			gc.poleFP, gc.resFP, len(gc.poles), gc.bound, c.poleFP, c.resFP, len(c.poles))
	}
	if gc.SigmaEntries() != c.SigmaEntries() {
		t.Fatalf("sigma entries %d, want %d", gc.SigmaEntries(), c.SigmaEntries())
	}
	for _, w := range c.sigmaFreqsSorted() {
		a, _ := c.sigmaFor(w)
		if v, ok := gc.sigmaFor(w); !ok || v != a {
			t.Fatalf("σ mismatch at ω=%g: %v (resident %v) vs %v", w, v, ok, a)
		}
	}
	if len(gc.hot) != 0 {
		t.Fatalf("blob carried hot seeds %v", gc.hot)
	}
	if gc.SigmaHits != 0 || gc.SigmaMisses != 0 {
		t.Fatalf("counters not zero: hits=%d misses=%d", gc.SigmaHits, gc.SigmaMisses)
	}
	if again := gc.Encode(); !bytes.Equal(again, blob) {
		t.Fatalf("re-encoded blob differs (%d vs %d bytes)", len(again), len(blob))
	}
}

func TestEvalCacheLoadRejectsGarbage(t *testing.T) {
	if _, err := DecodeEvalCache([]byte("not a cache stream at all, just text")); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("got %v, want ErrCacheCorrupt", err)
	}
	c := primeCache(t)
	blob := c.Encode()
	if _, err := DecodeEvalCache(blob[:len(blob)/2]); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("truncated blob: got %v, want ErrCacheCorrupt", err)
	}
	// A well-formed blob whose fingerprint does not belong to its poles.
	c.poleFP++
	if _, err := DecodeEvalCache(c.Encode()); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("foreign pole fingerprint: got %v, want ErrCacheCorrupt", err)
	}
}
