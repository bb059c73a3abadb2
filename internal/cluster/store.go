package cluster

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	repro "repro"
)

// cacheStore is the coordinator's content-addressed warm-state store:
// validated Session cache blobs keyed by their own content (fingerprint +
// the blob's CRC-64 footer + length), with a per-fingerprint "latest"
// pointer and an LRU byte budget. Content addressing makes re-uploads of
// an unchanged cache free to store and lets a blob be shipped to any
// number of members without coordination.
type cacheStore struct {
	mu     sync.Mutex
	blobs  map[string]*storeEntry
	latest map[uint64]string // fingerprint → newest blob address
	lru    *list.List        // of *storeEntry; front = most recent
	bytes  int64
	budget int64
}

type storeEntry struct {
	addr string
	fp   uint64
	blob []byte
	elem *list.Element
}

func newCacheStore(budget int64) *cacheStore {
	return &cacheStore{
		blobs:  make(map[string]*storeEntry),
		latest: make(map[uint64]string),
		lru:    list.New(),
		budget: budget,
	}
}

// put validates blob as a well-formed checksummed cache blob and stores
// it, returning its content address. A corrupt blob is rejected without
// storing anything — the caller quarantines (counts) it.
func (st *cacheStore) put(blob []byte) (addr string, fp uint64, err error) {
	fp, err = repro.CacheBlobFingerprint(blob)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: corrupt cache upload: %w", err)
	}
	// The footer is the CRC-64 of everything before it, so it already
	// hashes the content. (A CRC over the whole blob would not: for every
	// blob that ends in its own CRC it is the same constant.)
	footer := binary.LittleEndian.Uint64(blob[len(blob)-8:])
	addr = fmt.Sprintf("%016x-%016x-%d", fp, footer, len(blob))
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.blobs[addr]; ok {
		st.lru.MoveToFront(e.elem)
		st.latest[fp] = addr
		return addr, fp, nil
	}
	e := &storeEntry{addr: addr, fp: fp, blob: blob}
	e.elem = st.lru.PushFront(e)
	st.blobs[addr] = e
	st.bytes += int64(len(blob))
	st.latest[fp] = addr
	for st.budget > 0 && st.bytes > st.budget && st.lru.Len() > 1 {
		old := st.lru.Back().Value.(*storeEntry)
		st.lru.Remove(old.elem)
		delete(st.blobs, old.addr)
		st.bytes -= int64(len(old.blob))
		if st.latest[old.fp] == old.addr {
			delete(st.latest, old.fp)
		}
	}
	return addr, fp, nil
}

// get returns the blob at addr (nil when evicted or never stored).
func (st *cacheStore) get(addr string) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.blobs[addr]
	if !ok {
		return nil
	}
	st.lru.MoveToFront(e.elem)
	return e.blob
}

// latestAddr returns the newest stored blob address for a fingerprint
// ("" when none survives the budget).
func (st *cacheStore) latestAddr(fp uint64) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.latest[fp]
}

// stats reports the store's resident bytes and blob count (gauges).
func (st *cacheStore) stats() (bytes int64, blobs int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes, st.lru.Len()
}
