package passivity

import (
	"bytes"
	"errors"
	"testing"
)

// primeCache runs a check with a cache so its σ layer carries real entries.
func primeCache(t *testing.T) (*EvalCache, *CacheBlob) {
	t.Helper()
	model, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := NewEvalCache()
	if _, err := Check(model, CheckOptions{Method: MethodAdaptive, Cache: c, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	c.SetHot([]float64{3.5, 88})
	if c.SigmaEntries() == 0 {
		t.Fatal("priming left an empty σ layer")
	}
	return c, &CacheBlob{PoleFP: 0x1234, ResFP: 0x5678, Poles: model.Poles, Cache: c}
}

// TestEvalCacheSaveLoadRoundtrip: the blob carries the header, the poles
// and the σ layer exactly; the hot seeds stay behind, and the decoded
// cache re-encodes byte for byte.
func TestEvalCacheSaveLoadRoundtrip(t *testing.T) {
	c, b := primeCache(t)
	blob := b.Encode()
	got, err := DecodeCacheBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.PoleFP != b.PoleFP || got.ResFP != b.ResFP || len(got.Poles) != len(b.Poles) {
		t.Fatalf("header %016x/%016x/%d poles, want %016x/%016x/%d",
			got.PoleFP, got.ResFP, len(got.Poles), b.PoleFP, b.ResFP, len(b.Poles))
	}
	for i, p := range b.Poles {
		if got.Poles[i] != p {
			t.Fatalf("pole %d: %v, want %v", i, got.Poles[i], p)
		}
	}
	gc := got.Cache
	if gc.SigmaEntries() != c.SigmaEntries() {
		t.Fatalf("sigma entries %d, want %d", gc.SigmaEntries(), c.SigmaEntries())
	}
	for _, w := range c.sigmaFreqsSorted() {
		a, _ := c.sigmaFor(w)
		if v, ok := gc.sigmaFor(w); !ok || v != a {
			t.Fatalf("σ mismatch at ω=%g: %v (resident %v) vs %v", w, v, ok, a)
		}
	}
	if len(gc.Hot()) != 0 {
		t.Fatalf("blob carried hot seeds %v", gc.Hot())
	}
	if gc.SigmaHits != 0 || gc.SigmaMisses != 0 {
		t.Fatalf("counters not zero: hits=%d misses=%d", gc.SigmaHits, gc.SigmaMisses)
	}
	if again := got.Encode(); !bytes.Equal(again, blob) {
		t.Fatalf("re-encoded blob differs (%d vs %d bytes)", len(again), len(blob))
	}
}

func TestEvalCacheLoadRejectsGarbage(t *testing.T) {
	if _, err := DecodeCacheBlob([]byte("not a cache stream at all, just text")); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("got %v, want ErrCacheCorrupt", err)
	}
	_, b := primeCache(t)
	blob := b.Encode()
	if _, err := DecodeCacheBlob(blob[:len(blob)/2]); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("truncated blob: got %v, want ErrCacheCorrupt", err)
	}
}
