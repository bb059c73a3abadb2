package passivity

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

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
	if rep.Iterations != len(rep.MaxSigmaHistory) {
		t.Fatalf("incoherent partial report: %d iterations, %d history entries", rep.Iterations, len(rep.MaxSigmaHistory))
	}
	if rep.Iterations == 0 {
		t.Fatal("cancellation fired after the first sweep; the partial report must show it")
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
