package passivity

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rational"
)

// EvalCache memoizes σ_max samples across repeated passivity checks of one
// model. A σ value depends on the poles, the residues and D, so the cache
// keeps the exact pole set its layers belong to, that set's fingerprint
// and the residue+D fingerprint of its active σ layer, and decides for
// itself what is still valid: Check and Pipeline.Run bind it to the model
// on entry (bind). On first use it adopts the model; on a different pole
// set it starts over; when only the residues or D moved — an enforcement
// perturbation, a D clamp, a scaled bisection probe — it drops the active
// layer and keeps the hot seeds. No σ sample of an earlier model is ever
// served, whatever the caller did to the model in between. The Session
// byte budget bounds how many caches stay resident.
//
// Beyond the single active σ layer, the cache parks up to maxSigmaStash
// complete σ layers of other residue variants of its pole set (Select):
// when a caller cycles between residue variants that share the poles — a
// parameter-sweep library re-checked every round — each variant's σ
// samples survive the visits of its siblings instead of being recomputed
// every time.
//
// Alongside the active σ layer the cache memoizes the level-1 Hamiltonian
// crossings of the same residue set (memoCrossings), so the exact
// eigentest that closes an enforcement run and the certified check of the
// result share one dense eigensolve. Whatever drops or parks the active σ
// layer drops the crossings too; they are never parked in the stash and
// never serialized.
//
// The cache also carries the violation-band frequencies found by the
// previous check (hot) into the next check's seed grid, so that
// enforcement iterations re-localize their shrinking bands in a single
// refinement stage instead of rediscovering them from the coarse grid.
//
// The cache is NOT safe for concurrent use. The adaptive characterizer
// batches each refinement stage: cache lookups and stores happen on the
// calling goroutine, only the cache misses fan out through parallel.For,
// each miss writing its own slot. Results are therefore independent of the
// worker count.
type EvalCache struct {
	// poles is the exact pole set every σ layer belongs to, poleFP its
	// fingerprint and resFP the residue+D fingerprint of the active layer;
	// bound is false until the cache first meets a model.
	poles         []complex128
	poleFP, resFP uint64
	bound         bool

	sigma map[float64]float64
	hot   []float64

	// crossings holds the level-1 Hamiltonian crossings of the active
	// residue set when crossingsOK is set.
	crossings   []float64
	crossingsOK bool

	// stash holds parked σ layers by residue fingerprint (Select);
	// stashOrder tracks their recency, most recent last.
	stash      map[uint64]map[float64]float64
	stashOrder []uint64

	// Counters for benchmarks and experiment reports. Eigensolves counts
	// the dense Hamiltonian eigensolves memoCrossings ran for this cache.
	SigmaHits, SigmaMisses int
	Eigensolves            int
}

// NewEvalCache returns an empty cache; it adopts the first model it meets.
func NewEvalCache() *EvalCache {
	return &EvalCache{sigma: make(map[float64]float64)}
}

// fnvMix folds one 64-bit word into an FNV-1a hash.
func fnvMix(h, w uint64) uint64 {
	const prime = 1099511628211
	for shift := 0; shift < 64; shift += 8 {
		h ^= (w >> shift) & 0xff
		h *= prime
	}
	return h
}

const fnvOffset = 14695981039346656037

// PoleFingerprint hashes a pole set with FNV-1a (exact bit patterns,
// order-sensitive): the key under which a Session files a model's cache.
func PoleFingerprint(poles []complex128) uint64 {
	h := uint64(fnvOffset)
	for _, p := range poles {
		h = fnvMix(h, math.Float64bits(real(p)))
		h = fnvMix(h, math.Float64bits(imag(p)))
	}
	return h
}

// residueFingerprint hashes everything the σ layer depends on besides the
// poles: the residue matrices and the direct coupling D.
func residueFingerprint(m *rational.Model) uint64 {
	h := uint64(fnvOffset)
	for _, r := range m.Residues {
		for _, z := range r.Data {
			h = fnvMix(h, math.Float64bits(real(z)))
			h = fnvMix(h, math.Float64bits(imag(z)))
		}
	}
	p := m.D.Rows
	for i := 0; i < p; i++ {
		for _, v := range m.D.Row(i) {
			h = fnvMix(h, math.Float64bits(v))
		}
	}
	return h
}

// Fingerprint returns the PoleFingerprint of the pole set the cache holds.
func (c *EvalCache) Fingerprint() uint64 { return c.poleFP }

// bind makes the cache answer for model (see EvalCache): a fresh cache or
// a different pole set starts over with everything dropped, changed
// residues or D drop the active σ layer and the crossings. A nil cache is
// a no-op.
func (c *EvalCache) bind(model *rational.Model) {
	if c == nil {
		return
	}
	if !c.bound || !slices.Equal(c.poles, model.Poles) {
		c.adopt(model)
		return
	}
	if fp := residueFingerprint(model); fp != c.resFP {
		c.resFP = fp
		c.dropCrossings()
		// clear keeps the map's buckets: the next sweep re-stores σ at the
		// same frequencies without re-growing the table from scratch.
		clear(c.sigma)
	}
}

// adopt empties the cache and makes model's pole set and residues its own.
func (c *EvalCache) adopt(model *rational.Model) {
	c.poles = append(c.poles[:0], model.Poles...)
	c.poleFP, c.resFP, c.bound = PoleFingerprint(model.Poles), residueFingerprint(model), true
	clear(c.sigma)
	c.stash, c.stashOrder = nil, nil
	c.hot = c.hot[:0]
	c.dropCrossings()
}

// maxSigmaStash bounds the parked σ layers a cache retains; beyond it the
// least-recently-parked layer is dropped. 64 comfortably covers a
// parameter sweep's variants per pole set while keeping the worst-case
// footprint proportional to the active layer.
const maxSigmaStash = 64

// Select prepares the cache for a checkout of model and reports whether it
// holds model's pole set. A fresh cache adopts the model. Otherwise the
// active σ layer is parked in the stash under its residue fingerprint and
// the layer previously parked for model's residues (if any) becomes
// active, so cycling through a library of residue variants turns every
// revisit into σ hits instead of recomputations; the memoized crossings
// are dropped, not parked. The hot seeds are cleared so a checked-out
// cache samples exactly like a fresh one. On a different pole set (a
// fingerprint collision in the caller's index) Select returns false and
// leaves the cache untouched.
func (c *EvalCache) Select(model *rational.Model) bool {
	if !c.bound {
		c.adopt(model)
		return true
	}
	if !slices.Equal(c.poles, model.Poles) {
		return false
	}
	if fp := residueFingerprint(model); fp != c.resFP {
		c.swap(fp)
	}
	c.hot = c.hot[:0]
	return true
}

// swap parks the active σ layer under its residue fingerprint and makes
// the layer parked under restore (or an empty one) active.
func (c *EvalCache) swap(restore uint64) {
	park := c.resFP
	c.resFP = restore
	c.dropCrossings()
	if c.stash == nil {
		c.stash = make(map[uint64]map[float64]float64)
	}
	if len(c.sigma) > 0 {
		if _, dup := c.stash[park]; !dup {
			c.stash[park] = c.sigma
			c.stashOrder = append(c.stashOrder, park)
			for len(c.stashOrder) > maxSigmaStash {
				drop := c.stashOrder[0]
				c.stashOrder = c.stashOrder[1:]
				delete(c.stash, drop)
			}
			c.sigma = nil
		}
	}
	if restored, ok := c.stash[restore]; ok {
		delete(c.stash, restore)
		for i, k := range c.stashOrder {
			if k == restore {
				c.stashOrder = append(c.stashOrder[:i], c.stashOrder[i+1:]...)
				break
			}
		}
		c.sigma = restored
		return
	}
	if c.sigma == nil {
		c.sigma = make(map[float64]float64)
	} else {
		clear(c.sigma)
	}
}

func (c *EvalCache) dropCrossings() {
	c.crossings, c.crossingsOK = nil, false
}

// memoCrossings returns the level-1 Hamiltonian crossings of the model
// (crossingsLevel at γ = 1) through the cache's memo, and whether
// it solved the eigenproblem for them: when the cache already holds the
// crossings of its active residue set no eigensolve runs. Only a
// successful solve is stored, and callers get their own copy. A nil cache
// solves every time.
func memoCrossings(ctx context.Context, model *rational.Model, c *EvalCache) ([]float64, bool, error) {
	if c != nil && c.crossingsOK {
		return slices.Clone(c.crossings), false, nil
	}
	crossings, err := crossingsLevel(ctx, model, 1)
	if err != nil {
		return nil, false, err
	}
	if c != nil {
		c.Eigensolves++
		c.crossings, c.crossingsOK = slices.Clone(crossings), true
	}
	return crossings, true, nil
}

// StashedSigmaEntries sums the σ samples held by parked layers (see
// Select); the active layer is counted by SigmaEntries.
func (c *EvalCache) StashedSigmaEntries() int {
	n := 0
	for _, layer := range c.stash {
		n += len(layer)
	}
	return n
}

// sigmaFreqsSorted returns the frequencies resident in the σ layer in
// ascending order (nil for a nil cache). The certification sweep anchors
// on them: their evaluations are already paid for, and inside Enforce they
// sit exactly where the adaptive sweeps found the response interesting.
func (c *EvalCache) sigmaFreqsSorted() []float64 {
	if c == nil || len(c.sigma) == 0 {
		return nil
	}
	out := make([]float64, 0, len(c.sigma))
	for w := range c.sigma {
		out = append(out, w)
	}
	sort.Float64s(out)
	return out
}

// sigmaFor returns the cached σ_max for ω when resident.
func (c *EvalCache) sigmaFor(w float64) (float64, bool) {
	s, ok := c.sigma[w]
	return s, ok
}

// sigmaBatch evaluates σ_max at every frequency of ws, filling cache hits
// serially and fanning the misses (every frequency without a cache) out
// over up to workers goroutines. Worker 0 evaluates in w0, the caller's
// workspace; every other worker takes its own from the pool for the
// batch. The result slice is index-aligned with ws and bitwise
// independent of the worker count. When ctx is cancelled mid-batch the
// fan-out drains deterministically and sigmaBatch returns ctx.Err() with a
// nil slice; nothing is stored in the cache, so a retried batch
// recomputes cleanly.
func sigmaBatch(ctx context.Context, model *rational.Model, ws []float64, workers int, c *EvalCache, w0 *checkWorkspace) ([]float64, error) {
	out := make([]float64, len(ws))
	miss := make([]int, 0, len(ws))
	for i, w := range ws {
		if c != nil {
			if s, ok := c.sigmaFor(w); ok {
				out[i] = s
				c.SigmaHits++
				continue
			}
			c.SigmaMisses++
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	wss := make([]*checkWorkspace, min(workers, len(miss)))
	wss[0] = w0
	for k := 1; k < len(wss); k++ {
		wss[k] = getWorkspace()
	}
	err := parallel.ForWorkerCtx(ctx, len(wss), len(miss), func(wk, bi int) {
		i := miss[bi]
		out[i] = wss[wk].sigmaAt(model, ws[i])
	})
	for _, w := range wss[1:] {
		workspaces.Put(w)
	}
	if err != nil {
		return nil, err
	}
	if c != nil {
		for _, i := range miss {
			c.sigma[ws[i]] = out[i]
		}
	}
	return out, nil
}

// cachedSigma evaluates σ_max at one frequency through the cache, falling
// back to a direct workspace evaluation without one. This is the kernel
// behind the golden-section peak refinement, whose off-grid frequencies
// historically bypassed the cache and were re-evaluated every enforcement
// sweep.
func cachedSigma(model *rational.Model, w float64, c *EvalCache, ws *checkWorkspace) float64 {
	if c == nil {
		return ws.sigmaAt(model, w)
	}
	if s, ok := c.sigmaFor(w); ok {
		c.SigmaHits++
		return s
	}
	c.SigmaMisses++
	s := ws.sigmaAt(model, w)
	c.sigma[w] = s
	return s
}
