package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		n := 1000
		counts := make([]int64, n)
		For(workers, n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(4, 0, func(int) { called = true })
	For(4, -3, func(int) { called = true })
	if called {
		t.Fatal("fn must not run for n ≤ 0")
	}
}

func TestForDeterministicResult(t *testing.T) {
	f := func(seed uint8) bool {
		n := 257
		a := make([]float64, n)
		b := make([]float64, n)
		work := func(out []float64) func(int) {
			return func(i int) { out[i] = float64(i*i+int(seed)) / 3.0 }
		}
		For(1, n, work(a))
		For(8, n, work(b))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestForWorkerVisitsEachIndexOnceWithValidWorker(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 7, 64} {
		n := 1000
		counts := make([]int64, n)
		bound := workers
		if bound <= 0 {
			bound = n // GOMAXPROCS-resolved; any id below n is structurally valid
		}
		err := ForWorkerCtx(context.Background(), workers, n, func(w, i int) {
			if w < 0 || w >= bound {
				t.Errorf("workers=%d: worker id %d out of range", workers, w)
			}
			atomic.AddInt64(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForWorkerIsolatesWorkerState(t *testing.T) {
	// Each worker accumulates into its own slot without synchronization —
	// the contract that per-worker workspaces rely on. The per-worker sums
	// must add up to the total exactly.
	workers := 8
	n := 5000
	sums := make([]int64, workers)
	if err := ForWorkerCtx(context.Background(), workers, n, func(w, i int) { sums[w] += int64(i) }); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	if want := int64(n) * int64(n-1) / 2; total != want {
		t.Fatalf("per-worker partial sums total %d, want %d", total, want)
	}
}

func TestForCtxCompletesWithoutCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := 500
		counts := make([]int64, n)
		err := ForWorkerCtx(context.Background(), workers, n, func(_, i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int64
		err := ForWorkerCtx(ctx, workers, 100, func(int, int) { atomic.AddInt64(&ran, 1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// A pre-cancelled context may still let the first claims through on
		// the parallel path (workers observe ctx once per claim), but a
		// serial run must not start any index.
		if workers == 1 && ran != 0 {
			t.Fatalf("serial run executed %d indices under a cancelled context", ran)
		}
	}
}

func TestForWorkerCtxDrainsInFlightAndLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished int64
	err := ForWorkerCtx(ctx, 4, 10000, func(_, i int) {
		if atomic.AddInt64(&started, 1) == 5 {
			cancel() // cancel mid-run from inside the work itself
		}
		time.Sleep(50 * time.Microsecond)
		atomic.AddInt64(&finished, 1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Deterministic drain: every claimed index ran to completion.
	if s, f := atomic.LoadInt64(&started), atomic.LoadInt64(&finished); s != f {
		t.Fatalf("%d indices started but only %d finished", s, f)
	}
	if finished >= 10000 {
		t.Fatal("cancellation did not stop the claim loop")
	}
	// All worker goroutines must be joined; allow the runtime a settle loop.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestForWorkerCtxNilContext(t *testing.T) {
	var ran int64
	if err := ForWorkerCtx(nil, 2, 64, func(_, i int) { atomic.AddInt64(&ran, 1) }); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("unexpected error %v", err)
	}
	if ran != 64 {
		t.Fatalf("ran %d of 64 indices", ran)
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	e7 := errors.New("seven")
	e3 := errors.New("three")
	err := ForErr(4, 10, func(i int) error {
		switch i {
		case 7:
			return e7
		case 3:
			return e3
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("got %v want error of index 3", err)
	}
	if err := ForErr(4, 10, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}
