package repro_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	repro "repro"
)

// TestCacheBlobGolden pins the v5 cache format against a committed file:
// testdata/session_cache_4p60.evc is the ExportCache blob of a seeded
// 4-port 60-pole model after a check of the model, an enforcement of a
// copy and a second check of the model (active layer: the model; stashed
// layer: the enforced copy). Cache files that passivityd and passcheck
// -cache-dir wrote must keep loading: the blob imports, re-exports byte
// for byte, belongs to the regenerated model's pole set, and checks of
// both residue variants through it equal the stateless reports, the
// model's check computing no new σ sample.
func TestCacheBlobGolden(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "session_cache_4p60.evc"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{Ports: 4, Poles: 60, Seed: 2525, PeakGain: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := repro.CacheBlobFingerprint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := repro.PoleFingerprint(m); fp != want {
		t.Fatalf("blob fingerprint %016x, regenerated model %016x", fp, want)
	}

	s := repro.NewSession()
	if got, err := s.ImportCache(blob); err != nil || got != fp {
		t.Fatalf("import: %016x, %v", got, err)
	}
	again, err := s.ExportCache(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("re-exported blob differs (%d vs %d bytes)", len(again), len(blob))
	}

	ctx := context.Background()
	opts := repro.CheckOptions{Method: repro.CheckAdaptive}
	enforced := m.Clone()
	if _, err := repro.NewSession().Enforce(ctx, enforced, repro.EnforceOptions{Check: opts}); err != nil {
		t.Fatal(err)
	}
	entries := s.CacheStats().SigmaEntries
	for i, model := range []*repro.Macromodel{m, enforced} {
		want, err := repro.NewSession().Check(ctx, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Check(ctx, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %d: check through the loaded cache differs from the stateless one:\n%+v\nvs\n%+v", i, got, want)
		}
		// The active layer came from exactly this check of the model.
		if n := s.CacheStats().SigmaEntries; i == 0 && n != entries {
			t.Fatalf("the check computed %d new σ samples; the blob should have served all of them", n-entries)
		}
	}
}
