package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"
)

// TestCacheStoreAddressesByContent: two valid blobs of one pole set with
// equal length but different σ values must get distinct addresses and
// come back intact. A CRC-64 over a blob that ends in its own CRC-64
// footer is the same constant for every valid blob, so an address hashing
// the whole blob collapsed to fingerprint + length and served the first
// blob for the second.
func TestCacheStoreAddressesByContent(t *testing.T) {
	fp, a := cacheBlobFor(t, library(t, 1, 1, 12)[0])
	b := append([]byte(nil), a...)
	b[len(b)-24] ^= 1 // low mantissa bit of the last active σ sample
	body := b[:len(b)-8]
	binary.LittleEndian.PutUint64(b[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))

	st := newCacheStore(0)
	addrA, _, err := st.put(a)
	if err != nil {
		t.Fatal(err)
	}
	addrB, _, err := st.put(b)
	if err != nil {
		t.Fatal(err)
	}
	if addrA == addrB {
		t.Fatalf("distinct blobs share address %s", addrA)
	}
	if !bytes.Equal(st.get(addrA), a) || !bytes.Equal(st.get(addrB), b) {
		t.Fatal("stored blobs do not round-trip")
	}
	if got := st.latestAddr(fp); got != addrB {
		t.Fatalf("latest address %s, want %s", got, addrB)
	}
}
