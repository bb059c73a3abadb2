package passivity

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rational"
)

func violatingModels(t *testing.T, n, poles int) []*rational.Model {
	t.Helper()
	out := make([]*rational.Model, n)
	for i := range out {
		m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: poles, Seed: 700 + int64(i), PeakGain: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func TestEnforceCancelledBetweenSweeps(t *testing.T) {
	m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 20, Seed: 41, PeakGain: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sweeps int64
	opts := EnforceOptions{
		Check: CheckOptions{
			Method: MethodAdaptive,
			Ctx:    ctx,
			Progress: func(ev ProgressEvent) {
				if ev.Kind == ProgressIteration && atomic.AddInt64(&sweeps, 1) == 1 {
					cancel()
				}
			},
		},
		ClampD: true,
	}
	rep, err := Enforce(m, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled Enforce must return its partial report")
	}
	if rep.Iterations != len(rep.History) {
		t.Fatalf("incoherent partial report: %d iterations, %d history entries", rep.Iterations, len(rep.History))
	}
	if rep.Iterations == 0 {
		t.Fatal("cancellation fired after the first sweep; the partial report must show it")
	}
}

// TestEnforceBatchHonoursCheckCtx: the batch is cancelled through the
// per-model check context it already carries; a context cancelled before
// the call leaves every slot with ctx.Err() at every worker count.
func TestEnforceBatchHonoursCheckCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		models := violatingModels(t, 4, 16)
		rep := EnforceBatch(models, BatchOptions{
			Enforce: EnforceOptions{Check: CheckOptions{Method: MethodAdaptive, Ctx: ctx}, ClampD: true},
			Workers: workers,
		})
		for i, r := range rep.Results {
			if !errors.Is(r.Err, ctx.Err()) {
				t.Fatalf("workers=%d model %d: got %v, want %v", workers, i, r.Err, ctx.Err())
			}
		}
		if rep.Stats.Failed != len(models) {
			t.Fatalf("workers=%d: %d failed, want all %d", workers, rep.Stats.Failed, len(models))
		}
	}
}

func TestEnforceBatchCancellationDrainsAndMarksSlots(t *testing.T) {
	models := violatingModels(t, 8, 24)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events int64
	rep := EnforceBatch(models, BatchOptions{
		Enforce: EnforceOptions{
			Check: CheckOptions{
				Method: MethodAdaptive,
				Ctx:    ctx,
				Progress: func(ev ProgressEvent) {
					if atomic.AddInt64(&events, 1) == 2 {
						cancel()
					}
					if ev.Model < 0 || ev.Model >= len(models) {
						t.Errorf("progress event with out-of-range model %d", ev.Model)
					}
				},
			},
			ClampD: true,
		},
		Workers: 2,
	})
	if rep.Stats.Models != len(models) {
		t.Fatalf("stats cover %d models, want %d", rep.Stats.Models, len(models))
	}
	var completed, cancelled int
	for i, r := range rep.Results {
		switch {
		case r.Err == nil:
			if r.Report == nil || r.Report.Final == nil {
				t.Fatalf("model %d: no error but incomplete report", i)
			}
			completed++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("model %d: unexpected error %v", i, r.Err)
		}
	}
	if cancelled == 0 {
		t.Fatal("no model was cancelled — the cancel raced past the batch")
	}
	if completed+cancelled != len(models) {
		t.Fatalf("slots unaccounted: %d completed + %d cancelled of %d", completed, cancelled, len(models))
	}
	if rep.Stats.Failed != cancelled {
		t.Fatalf("stats count %d failed, want the %d cancelled models", rep.Stats.Failed, cancelled)
	}
	// Zero leaked goroutines, with a settle loop for runtime bookkeeping.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCheckCancelledContext(t *testing.T) {
	m, err := SyntheticModel(SyntheticOptions{Ports: 2, Poles: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range []Method{MethodAdaptive, MethodSweep, MethodHamiltonian} {
		if _, err := Check(m, CheckOptions{Method: method, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("method %d: got %v, want context.Canceled", method, err)
		}
	}
}
