package passivity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"sort"
)

// Cache blob codec: the one serialized form of an EvalCache, used for
// cache files on disk and for warm-state transfers between hosts alike.
// It carries what a receiver cannot cheaply recompute — the σ samples —
// together with the identity the cache binds by, in a versioned
// little-endian stream:
//
//	u64  magic "SESC" << 32 | version 5
//	u64  pole-set fingerprint (PoleFingerprint of the poles below)
//	u64  residue fingerprint of the active σ layer
//	u64  n, then n poles as (re, im) float64 pairs
//	layer: the active σ layer
//	u64  k ≤ maxSigmaStash, then k × (u64 residue key, layer): the
//	     stashed σ layers, least recently parked first
//	u64  CRC-64/ECMA of every preceding byte
//
// where a layer is a u64 count followed by that many (ω, σ) float64
// pairs in strictly increasing ω. The hot seeds do not travel (Select
// clears them at every checkout).
//
// The encoding is canonical: DecodeEvalCache accepts exactly the blobs
// Encode can produce, so an accepted blob re-encodes byte for byte. Every
// rejection wraps ErrCacheCorrupt, and every count is checked against the
// bytes that remain before anything is allocated.

const (
	cacheMagic   = 0x53455343 // "SESC"
	cacheVersion = 5          // v5: σ from the direct σ_max kernel; earlier versions are rejected
	cacheHead    = 4 * 8      // magic|version, two fingerprints, pole count
	cacheFoot    = 8          // CRC-64 footer
)

// ErrCacheCorrupt is wrapped by every rejection of a serialized
// evaluation cache: bad magic, unsupported version, checksum mismatch,
// truncation, a count beyond what the blob can hold, a non-finite or
// negative value, or a pole fingerprint that does not match the poles.
var ErrCacheCorrupt = errors.New("corrupt evaluation cache")

var cacheCRC = crc64.MakeTable(crc64.ECMA)

// SigmaEntries returns the number of σ samples in the active layer;
// parked variant layers are counted by StashedSigmaEntries.
func (c *EvalCache) SigmaEntries() int { return len(c.sigma) }

// Bytes estimates the resident size of the cache: the σ layers (active and
// stashed, with map overhead), the hot seeds and the pole set.
func (c *EvalCache) Bytes() int64 {
	return int64(c.SigmaEntries()+c.StashedSigmaEntries())*32 +
		int64(len(c.hot))*8 + int64(len(c.poles))*16
}

// Encode serializes the cache in the v5 format read by DecodeEvalCache.
func (c *EvalCache) Encode() []byte {
	n := cacheHead + 16*len(c.poles) + 16 + 16*len(c.sigma) + cacheFoot
	for _, layer := range c.stash {
		n += 16 + 16*len(layer)
	}
	le := binary.LittleEndian
	out := make([]byte, 0, n)
	f64 := func(v float64) { out = le.AppendUint64(out, math.Float64bits(v)) }
	layer := func(l map[float64]float64) {
		ws := make([]float64, 0, len(l))
		for w := range l {
			ws = append(ws, w)
		}
		sort.Float64s(ws)
		out = le.AppendUint64(out, uint64(len(ws)))
		for _, w := range ws {
			f64(w)
			f64(l[w])
		}
	}
	out = le.AppendUint64(out, cacheMagic<<32|cacheVersion)
	out = le.AppendUint64(out, c.poleFP)
	out = le.AppendUint64(out, c.resFP)
	out = le.AppendUint64(out, uint64(len(c.poles)))
	for _, p := range c.poles {
		f64(real(p))
		f64(imag(p))
	}
	layer(c.sigma)
	out = le.AppendUint64(out, uint64(len(c.stashOrder)))
	for _, key := range c.stashOrder {
		out = le.AppendUint64(out, key)
		layer(c.stash[key])
	}
	return le.AppendUint64(out, crc64.Checksum(out, cacheCRC))
}

// DecodeEvalCache verifies and decodes a blob written by Encode: magic,
// version and the CRC-64 footer first, then the payload with every count
// bounded by the bytes that remain, and last the pole fingerprint against
// the poles. The returned cache is bound to the blob's pole set and
// residue fingerprint and holds its σ layers; its counters start at zero.
func DecodeEvalCache(blob []byte) (*EvalCache, error) {
	if len(blob) < cacheHead+cacheFoot {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCacheCorrupt, len(blob))
	}
	le := binary.LittleEndian
	if head := le.Uint64(blob); head>>32 != cacheMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCacheCorrupt, head>>32)
	} else if v := head & 0xffffffff; v != cacheVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCacheCorrupt, v)
	}
	// The footer covers every byte before it; verify it before parsing, so
	// corruption is one deterministic error instead of whatever a damaged
	// payload happens to decode as.
	body := blob[:len(blob)-cacheFoot]
	if want, got := le.Uint64(blob[len(body):]), crc64.Checksum(body, cacheCRC); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (blob %016x, computed %016x)", ErrCacheCorrupt, want, got)
	}
	r := blobReader{b: body[8:]}
	c := &EvalCache{poleFP: r.u64(), resFP: r.u64(), bound: true}
	if n := r.count(16, "pole"); r.err == nil {
		c.poles = make([]complex128, n)
		for i := range c.poles {
			re, im := r.f64(), r.f64()
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				r.fail("non-finite pole %d", i)
			}
			c.poles[i] = complex(re, im)
		}
	}
	c.sigma = r.layer()
	if k := r.count(16, "stash"); r.err == nil {
		if k > maxSigmaStash {
			return nil, fmt.Errorf("%w: %d stashed layers exceeds limit %d", ErrCacheCorrupt, k, maxSigmaStash)
		}
		if k > 0 {
			c.stash = make(map[uint64]map[float64]float64, k)
		}
		for i := 0; i < k && r.err == nil; i++ {
			key := r.u64()
			if _, dup := c.stash[key]; dup {
				r.fail("duplicate stash key %016x", key)
			}
			c.stash[key] = r.layer()
			c.stashOrder = append(c.stashOrder, key)
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	if fp := PoleFingerprint(c.poles); fp != c.poleFP {
		return nil, fmt.Errorf("%w: pole fingerprint mismatch (blob %016x, poles %016x)", ErrCacheCorrupt, c.poleFP, fp)
	}
	return c, nil
}

// blobReader consumes a checksummed payload; the first failure sticks and
// turns every later read into a zero.
type blobReader struct {
	b   []byte
	err error
}

func (r *blobReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCacheCorrupt}, args...)...)
	}
}

func (r *blobReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *blobReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a length prefix and rejects it unless that many items of at
// least size bytes each fit in the remaining payload.
func (r *blobReader) count(size int, what string) int {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.b)/size) {
		r.fail("%s count %d does not fit in the %d remaining bytes", what, n, len(r.b))
	}
	return int(n)
}

// layer reads one σ layer: finite non-negative samples in strictly
// increasing ω, the order Encode writes.
func (r *blobReader) layer() map[float64]float64 {
	n := r.count(16, "σ")
	if r.err != nil {
		return nil
	}
	l := make(map[float64]float64, n)
	prev := math.Inf(-1)
	for i := 0; i < n && r.err == nil; i++ {
		w, s := r.f64(), r.f64()
		switch {
		case !(w >= 0 && w <= math.MaxFloat64) || !(s >= 0 && s <= math.MaxFloat64):
			r.fail("non-finite or negative sample (ω=%g, σ=%g)", w, s)
		case !(w > prev):
			r.fail("σ layer out of order at ω=%g", w)
		}
		l[w] = s
		prev = w
	}
	return l
}
