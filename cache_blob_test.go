package repro_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	repro "repro"
)

const (
	blobHead     = 0x53455343<<32 | 5   // "SESC", version 5
	emptyPolesFP = 14695981039346656037 // PoleFingerprint of an empty pole set
)

var blobCRC = crc64.MakeTable(crc64.ECMA)

// seal builds a CRC-valid blob from little-endian payload words.
func seal(words ...uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, blobCRC))
}

// reseal recomputes the footer of a blob whose payload was edited.
func reseal(blob []byte) []byte {
	if len(blob) < 8 {
		return blob
	}
	out := append([]byte(nil), blob...)
	body := out[:len(out)-8]
	binary.LittleEndian.PutUint64(out[len(body):], crc64.Checksum(body, blobCRC))
	return out
}

// exportedBlob checks a small violating model, enforces a copy and checks
// the original again, then exports the cache: an active σ layer plus the
// enforced variant's layer in the stash. A coarse sweep keeps it small.
func exportedBlob(tb testing.TB) []byte {
	tb.Helper()
	m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{Ports: 2, Poles: 6, Seed: 900, PeakGain: 0.9})
	if err != nil {
		tb.Fatal(err)
	}
	s := repro.NewSession()
	ctx := context.Background()
	opts := repro.CheckOptions{Method: repro.CheckSweep, SweepPoints: 12}
	if _, err := s.Check(ctx, m, opts); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Enforce(ctx, m.Clone(), repro.EnforceOptions{Check: opts, ClampD: true}); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Check(ctx, m, opts); err != nil {
		tb.Fatal(err)
	}
	if st := s.CacheStats(); st.Models != 1 || st.SigmaEntries == 0 {
		tb.Fatalf("cache after check/enforce/check: %+v", st)
	}
	blob, err := s.ExportCache(repro.PoleFingerprint(m))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// oversizeBlob is a CRC-valid 96-byte blob whose σ layer claims 2^27
// entries (2 GiB of samples) while carrying three.
func oversizeBlob() []byte {
	return seal(blobHead, emptyPolesFP, 0, 0, 1<<27, 0, 0, 0, 0, 0, 0)
}

// TestCacheBlobSize: a blob carries σ layers only, so the cache of a
// 4-port, 60-pole model after one check and one enforcement is tens of
// kilobytes.
func TestCacheBlobSize(t *testing.T) {
	m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{Ports: 4, Poles: 60, Seed: 3, PeakGain: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s := repro.NewSession()
	ctx := context.Background()
	if _, err := s.Check(ctx, m, repro.CheckOptions{Method: repro.CheckAdaptive}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enforce(ctx, m.Clone(), repro.EnforceOptions{ClampD: true}); err != nil {
		t.Fatal(err)
	}
	blob, err := s.ExportCache(repro.PoleFingerprint(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= 64<<10 {
		t.Fatalf("blob is %d bytes, want < 64 KiB", len(blob))
	}
	st := s.CacheStats()
	t.Logf("blob %d bytes for %d σ entries", len(blob), st.SigmaEntries)
	if want := 32 + 16*60 + 16 + 16*st.SigmaEntries + 8; len(blob) > want+16*64 {
		t.Fatalf("blob is %d bytes for %d σ entries, want about %d", len(blob), st.SigmaEntries, want)
	}
}

// TestCacheBlobOversizeCountAllocatesNothing: a count is checked against
// the bytes that remain before anything is allocated for it.
func TestCacheBlobOversizeCountAllocatesNothing(t *testing.T) {
	blob := oversizeBlob()
	s := repro.NewSession()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.ImportCache(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, repro.ErrCacheCorrupt) {
		t.Fatalf("ImportCache: %v, want ErrCacheCorrupt", err)
	}
	d := after.TotalAlloc - before.TotalAlloc
	if d >= 1<<20 {
		t.Fatalf("rejecting a %d-byte blob allocated %d bytes, want < 1 MiB", len(blob), d)
	}
	t.Logf("rejecting a %d-byte blob allocated %d bytes: %v", len(blob), d, err)
}

// TestCacheBlobErrorsAreTyped: every rejection wraps ErrCacheCorrupt, and
// LoadCache quarantines each one as a file.
func TestCacheBlobErrorsAreTyped(t *testing.T) {
	good := exportedBlob(t)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	wrongFP := append([]byte(nil), good...)
	wrongFP[8] ^= 1
	nan := math.Float64bits(math.NaN())
	cases := []struct {
		name, text string
		blob       []byte
	}{
		{"empty", "truncated", nil},
		{"short", "truncated", good[:39]},
		{"bad magic", "bad magic", reseal(append(append(good[:4:4], "EVAC"...), good[8:]...))},
		{"version 3", "unsupported version", seal(0x53455343<<32|3, emptyPolesFP, 0, 0, 0, 0)},
		// v4 blobs hold σ samples of the Jacobi kernel: importing one would
		// break "a hit returns the same float the miss would compute".
		{"version 4", "unsupported version", seal(0x53455343<<32|4, emptyPolesFP, 0, 0, 0, 0)},
		{"checksum", "checksum mismatch", flipped},
		{"truncated payload", "truncated", seal(blobHead, emptyPolesFP, 0, 0)},
		{"cut layer", "does not fit", reseal(good[:len(good)-16])},
		{"trailing bytes", "trailing", reseal(append(append([]byte(nil), good...), make([]byte, 8)...))},
		{"fingerprint", "fingerprint mismatch", reseal(wrongFP)},
		{"pole count", "pole count", seal(blobHead, emptyPolesFP, 0, 1<<40, 0, 0)},
		{"σ count", "σ count", oversizeBlob()},
		{"stash over limit", "stashed layers", seal(append([]uint64{blobHead, emptyPolesFP, 0, 0, 0, 65}, make([]uint64, 2*65)...)...)},
		{"duplicate stash key", "duplicate", seal(blobHead, emptyPolesFP, 0, 0, 0, 2, 7, 0, 7, 0)},
		{"NaN pole", "non-finite pole", seal(blobHead, emptyPolesFP, 0, 1, nan, 0, 0, 0)},
		{"NaN ω", "non-finite", seal(blobHead, emptyPolesFP, 0, 0, 1, nan, 0, 0)},
		{"infinite σ", "non-finite", seal(blobHead, emptyPolesFP, 0, 0, 1, 0, math.Float64bits(math.Inf(1)), 0)},
		{"negative σ", "negative", seal(blobHead, emptyPolesFP, 0, 0, 1, 0, math.Float64bits(-1), 0)},
		{"negative ω", "negative", seal(blobHead, emptyPolesFP, 0, 0, 1, math.Float64bits(-2), 0, 0)},
		{"unsorted", "out of order", seal(blobHead, emptyPolesFP, 0, 0, 2, math.Float64bits(2), 0, math.Float64bits(1), 0, 0)},
	}
	dir := t.TempDir()
	for i, c := range cases {
		_, err := repro.NewSession().ImportCache(c.blob)
		if !errors.Is(err, repro.ErrCacheCorrupt) || !strings.Contains(err.Error(), c.text) {
			t.Errorf("%s: ImportCache: %v, want ErrCacheCorrupt mentioning %q", c.name, err, c.text)
		}
		if _, err := repro.CacheBlobFingerprint(c.blob); !errors.Is(err, repro.ErrCacheCorrupt) {
			t.Errorf("%s: CacheBlobFingerprint: %v, want ErrCacheCorrupt", c.name, err)
		}
		path := filepath.Join(dir, "cache-"+strings.Repeat("0", 15)+string(rune('a'+i))+repro.SessionCacheExt)
		if err := os.WriteFile(path, c.blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The well-formed twin of the crafted blobs is accepted.
	if _, err := repro.NewSession().ImportCache(seal(blobHead, emptyPolesFP, 0, 0, 1, 0, 0, 0)); err != nil {
		t.Fatalf("minimal valid blob rejected: %v", err)
	}
	loaded, quarantined, err := repro.NewSession().LoadCache(dir)
	if err != nil || loaded != 0 || quarantined != len(cases) {
		t.Fatalf("LoadCache: %d loaded, %d quarantined, err %v; want 0/%d/nil", loaded, quarantined, err, len(cases))
	}
}

// FuzzCacheBlob: ImportCache never panics, every rejection wraps
// ErrCacheCorrupt, and an accepted blob re-exports byte for byte. Each
// input is tried as given and with its footer recomputed, so mutations
// reach the payload decoder past the checksum.
func FuzzCacheBlob(f *testing.F) {
	good := exportedBlob(f)
	f.Add(good)
	for _, n := range []int{0, 8, 40, len(good) / 2, len(good) - 8, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(oversizeBlob())
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, b := range [][]byte{blob, reseal(blob)} {
			s := repro.NewSession()
			fp, err := s.ImportCache(b)
			fpOnly, errOnly := repro.CacheBlobFingerprint(b)
			if (err == nil) != (errOnly == nil) || fp != fpOnly {
				t.Fatalf("ImportCache (%016x, %v) and CacheBlobFingerprint (%016x, %v) disagree", fp, err, fpOnly, errOnly)
			}
			if err != nil {
				if !errors.Is(err, repro.ErrCacheCorrupt) {
					t.Fatalf("rejection does not wrap ErrCacheCorrupt: %v", err)
				}
				continue
			}
			again, err := s.ExportCache(fp)
			if err != nil {
				t.Fatalf("re-export of an accepted blob: %v", err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("accepted %d-byte blob re-exports as %d different bytes", len(b), len(again))
			}
		}
	})
}
