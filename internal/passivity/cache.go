package passivity

import (
	"context"
	"runtime"
	"slices"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rational"
)

// EvalCache memoizes σ_max samples across repeated passivity checks of the
// SAME pole set. A σ value depends on the residues too, so the active σ
// layer must be dropped whenever the model is perturbed (InvalidateSigma).
// The layer holds the samples of one residue set and is refilled after
// every perturbation; the Session byte budget bounds how many caches stay
// resident.
//
// Beyond the single active σ layer, the cache parks up to maxSigmaStash
// complete σ layers keyed by an opaque residue fingerprint (SwapSigma):
// when a caller cycles between residue variants that share the poles — a
// parameter-sweep library re-checked every round — each variant's σ
// samples survive the visits of its siblings instead of being recomputed
// every time.
//
// Alongside the active σ layer the cache memoizes the level-1 Hamiltonian
// crossings of the same residue set (memoCrossings), so the exact
// eigentest that closes an enforcement run and the certified check of the
// result share one dense eigensolve. Whatever drops the active σ layer
// (InvalidateSigma, SwapSigma) drops the crossings too; they are never
// parked in the stash and never serialized.
//
// The cache also carries the violation-band frequencies found by the
// previous check (Hot, SetHot) into the next check's seed grid, so that
// enforcement iterations re-localize their shrinking bands in a single
// refinement stage instead of rediscovering them from the coarse grid.
//
// The cache is NOT safe for concurrent use. The adaptive characterizer
// batches each refinement stage: cache lookups and stores happen on the
// calling goroutine, only the cache misses fan out through parallel.For,
// each miss writing its own slot. Results are therefore independent of the
// worker count.
type EvalCache struct {
	sigma map[float64]float64
	hot   []float64

	// crossings holds the level-1 Hamiltonian crossings of the active
	// residue set when crossingsOK is set.
	crossings   []float64
	crossingsOK bool

	// stash holds parked σ layers by residue fingerprint (SwapSigma);
	// stashOrder tracks their recency, most recent last.
	stash      map[uint64]map[float64]float64
	stashOrder []uint64

	// Counters for benchmarks and experiment reports. Eigensolves counts
	// the dense Hamiltonian eigensolves memoCrossings ran for this cache.
	SigmaHits, SigmaMisses int
	Eigensolves            int
}

// NewEvalCache returns an empty cache.
func NewEvalCache() *EvalCache {
	return &EvalCache{sigma: make(map[float64]float64)}
}

// InvalidateSigma drops the active σ layer and the memoized crossings (the
// model's residues or D changed in place, as enforcement perturbations
// do) while keeping the hot-frequency seeds and any stashed σ layers of
// other residue sets.
func (c *EvalCache) InvalidateSigma() {
	if c == nil {
		return
	}
	c.dropCrossings()
	// clear keeps the map's buckets: the next sweep re-stores σ at the same
	// frequencies without re-growing the table from scratch.
	clear(c.sigma)
}

// maxSigmaStash bounds the parked σ layers a cache retains; beyond it the
// least-recently-parked layer is dropped. 64 comfortably covers a
// parameter sweep's variants per pole set while keeping the worst-case
// footprint proportional to the active layer.
const maxSigmaStash = 64

// SwapSigma switches the active σ layer between residue variants of the
// cache's pole set: the current layer is parked in the stash under the
// park key, and the layer previously parked under the restore key (if
// any) becomes active. Callers pass residue fingerprints as keys and must
// guarantee the park key identifies the residues the active layer was
// computed from. Cycling through a library of residue variants this way
// turns every revisit into σ-layer hits instead of recomputations. The
// memoized crossings are dropped, not parked: a revisit re-solves them.
func (c *EvalCache) SwapSigma(park, restore uint64) {
	if c == nil || park == restore {
		return
	}
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
// (HamiltonianCrossings under ctx) through the cache's memo, and whether
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
// SwapSigma); the active layer is counted by SigmaEntries.
func (c *EvalCache) StashedSigmaEntries() int {
	n := 0
	for _, layer := range c.stash {
		n += len(layer)
	}
	return n
}

// SetHot records seed frequencies for the next check; NaN/±Inf and
// non-positive entries are dropped by the consumer.
func (c *EvalCache) SetHot(ws []float64) {
	if c == nil {
		return
	}
	c.hot = append(c.hot[:0], ws...)
}

// Hot returns the warm-start frequencies recorded by the previous check.
func (c *EvalCache) Hot() []float64 { return c.hot }

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
// serially and fanning the misses out over up to workers goroutines, each
// with its own workspace from pool. The result slice is index-aligned with
// ws and bitwise independent of the worker count. When ctx is cancelled
// mid-batch the fan-out drains deterministically and sigmaBatch returns
// ctx.Err() with a nil slice; nothing is stored in the cache, so a retried
// batch recomputes cleanly.
func sigmaBatch(ctx context.Context, model *rational.Model, ws []float64, workers int, c *EvalCache, pool *workspacePool) ([]float64, error) {
	out := make([]float64, len(ws))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if pool == nil {
		pool = newWorkspacePool()
	}
	if c == nil {
		pool.ensure(workers)
		if err := parallel.ForWorkerCtx(ctx, workers, len(ws), func(wk, i int) {
			out[i] = pool.get(wk).sigmaAt(model, ws[i])
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Serial pass over the cache; collect misses.
	miss := make([]int, 0, len(ws))
	for i, w := range ws {
		if s, ok := c.sigmaFor(w); ok {
			out[i] = s
			c.SigmaHits++
		} else {
			miss = append(miss, i)
			c.SigmaMisses++
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	pool.ensure(workers)
	if err := parallel.ForWorkerCtx(ctx, workers, len(miss), func(wk, bi int) {
		i := miss[bi]
		out[i] = pool.get(wk).sigmaAt(model, ws[i])
	}); err != nil {
		return nil, err
	}
	// Serial store.
	for _, i := range miss {
		c.sigma[ws[i]] = out[i]
	}
	return out, nil
}

// cachedSigma evaluates σ_max at one frequency through the cache, falling
// back to a direct workspace evaluation without one. This is the kernel
// behind the golden-section peak refinement, whose off-grid frequencies
// historically bypassed the cache and were re-evaluated every enforcement
// sweep.
func cachedSigma(model *rational.Model, w float64, c *EvalCache, ws *checkWorkspace) float64 {
	if ws == nil {
		ws = &checkWorkspace{}
	}
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
