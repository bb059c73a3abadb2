package repro_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	repro "repro"
)

// TestSessionExportImportCache round-trips a warm evaluation cache
// through the serialized blob form: the importing session must report the
// fingerprint resident and produce the exact same check results as the
// exporter — the mechanism cluster warm-state transfer rides on.
func TestSessionExportImportCache(t *testing.T) {
	m := violatingLibrary(t, 1, 20)[0]
	opts := repro.CheckOptions{Method: repro.CheckAdaptive}
	fp := repro.PoleFingerprint(m)

	s1 := repro.NewSession()
	want, err := s1.Check(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.ExportCache(fp); err != nil {
		t.Fatalf("export after check: %v", err)
	}
	blob, err := s1.ExportCache(fp)
	if err != nil {
		t.Fatal(err)
	}

	// The blob self-identifies and validates end to end.
	gotFP, err := repro.CacheBlobFingerprint(blob)
	if err != nil {
		t.Fatalf("validating exported blob: %v", err)
	}
	if gotFP != fp {
		t.Fatalf("blob fingerprint %016x, want %016x", gotFP, fp)
	}

	s2 := repro.NewSession()
	if s2.HasCache(fp) {
		t.Fatal("fresh session already holds the fingerprint")
	}
	impFP, err := s2.ImportCache(blob)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if impFP != fp || !s2.HasCache(fp) {
		t.Fatalf("import installed %016x (resident=%v), want %016x", impFP, s2.HasCache(fp), fp)
	}
	got, err := s2.Check(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imported-cache check drifted: %+v vs %+v", got, want)
	}

	// Exporting a fingerprint nobody holds fails typed.
	if _, err := s2.ExportCache(fp ^ 1); err == nil {
		t.Fatal("export of an absent fingerprint succeeded")
	}
}

// TestSessionImportCacheRejectsCorrupt flips single bytes across the blob
// and asserts every torn variant is rejected whole — no session state
// changes, matching the quarantine-on-corrupt contract of the file path.
func TestSessionImportCacheRejectsCorrupt(t *testing.T) {
	m := violatingLibrary(t, 1, 20)[0]
	fp := repro.PoleFingerprint(m)
	s1 := repro.NewSession()
	if _, err := s1.Check(context.Background(), m, repro.CheckOptions{Method: repro.CheckAdaptive}); err != nil {
		t.Fatal(err)
	}
	blob, err := s1.ExportCache(fp)
	if err != nil {
		t.Fatal(err)
	}

	for _, off := range []int{0, 8, len(blob) / 2, len(blob) - 1} {
		torn := append([]byte(nil), blob...)
		torn[off] ^= 0x20
		if _, err := repro.CacheBlobFingerprint(torn); err == nil {
			t.Errorf("CacheBlobFingerprint accepted a blob torn at %d", off)
		}
		s2 := repro.NewSession()
		if _, err := s2.ImportCache(torn); err == nil {
			t.Errorf("ImportCache accepted a blob torn at %d", off)
		}
		if st := s2.CacheStats(); st.Models != 0 {
			t.Errorf("rejected import at offset %d left %d caches resident", off, st.Models)
		}
	}
	// Truncation is rejected too.
	if _, err := repro.NewSession().ImportCache(blob[:len(blob)/3]); err == nil {
		t.Error("ImportCache accepted a truncated blob")
	}
	if _, err := repro.NewSession().ImportCache(nil); err == nil {
		t.Error("ImportCache accepted an empty blob")
	}

	// "Live cache wins": importing over an already-warm fingerprint keeps
	// the session consistent (one resident model, checks still clean).
	if _, err := s1.ImportCache(blob); err != nil {
		t.Fatalf("re-import over live cache: %v", err)
	}
	if st := s1.CacheStats(); st.Models != 1 {
		t.Fatalf("re-import left %d resident models, want 1", st.Models)
	}
	fps := s1.CacheFingerprints()
	if len(fps) != 1 || fps[0] != fp {
		t.Fatalf("CacheFingerprints = %x, want [%016x]", fps, fp)
	}
	// The encoding is canonical (σ layers sorted by frequency, no recency
	// metadata), so an untouched cache re-exports byte for byte.
	if again, err := s1.ExportCache(fp); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("re-export of an untouched cache changed (err %v)", err)
	}
}
