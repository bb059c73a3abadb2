// Package parallel provides a small deterministic fork-join helper for the
// embarrassingly parallel frequency sweeps of the library (singular-value
// sweeps, target-impedance and sensitivity evaluations). Results are
// bitwise independent of the worker count because every index writes only
// its own output slot; cf. the parallel Vector Fitting discussion in
// Chinea & Grivet-Talocia (ref. [11] of the paper).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), distributing indices over up to
// workers goroutines. workers ≤ 0 selects GOMAXPROCS; a single worker (or
// tiny n) runs inline. fn must be safe to call concurrently for distinct
// indices.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForWorkerCtx is For with a stable worker identity and cooperative
// cancellation. fn(w, i) runs index i on worker w ∈ [0, workers), letting
// callers hand each goroutine its own reusable workspace; like For, every
// index writes only its own output, so results stay bitwise independent of
// the worker count — the workspaces must only carry scratch state, never
// values that feed other indices. Once ctx is done (a nil ctx never is),
// workers stop claiming new indices, indices already in flight run to
// completion, and every goroutine is joined before the call returns: a
// claimed index is never abandoned halfway and no goroutine outlives the
// call. It returns nil when all n indices completed (even if ctx was
// cancelled after the last claim) and ctx.Err() when the cancellation left
// indices unclaimed; callers must treat their output as partial then.
func ForWorkerCtx(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var done int64 // indices fully completed
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(0, i)
			done++
		}
		return nil
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
				atomic.AddInt64(&done, 1)
			}
		}(w)
	}
	wg.Wait()
	if atomic.LoadInt64(&done) == int64(n) {
		return nil
	}
	return ctx.Err()
}

// ForErr is For with error collection: it returns the error of the lowest
// index whose fn failed (or nil). All indices are attempted regardless.
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
