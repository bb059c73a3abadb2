package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	repro "repro"
	"repro/internal/ledger"
)

// Worker supervision and job retry.
//
// The failure model: anything under a worker's job — the Session call,
// a progress sink, a fault hook — may panic, and the service must keep
// its contract anyway (every accepted job receives exactly one Result,
// Drain completes, the admission count never leaks). Each attempt
// therefore runs behind a recover that converts the panic into a typed
// *PanicError; the panicking worker's Session is retired on the spot —
// a panic mid-check can leave a checked-out cache half-mutated, so the
// old Session is never trusted again — and rebuilt fresh, up to
// Options.MaxWorkerRestarts times. Beyond the bound the worker leaves
// the ledger, which moves anything still queued on it to the survivors.
//
// A job that dies with a worker is released back to the ledger, which
// requeues it onto a different live worker (the same one only when no
// other exists) until Job.MaxAttempts runs out; any other error is final.
// Enforce retries restart from a pristine copy of the model, never from
// the half-perturbed one the failed attempt left behind.

// ErrWorkerPanic marks a job attempt that died with a panicking worker.
// Match with errors.Is; the concrete error is a *PanicError carrying the
// recovered value and stack.
var ErrWorkerPanic = errors.New("serve: worker panicked")

// ErrNoWorkers rejects a Submit because every worker exhausted its
// restart budget and was retired (HTTP 503).
var ErrNoWorkers = errors.New("serve: every worker retired")

// PanicError is the typed error a job fails with when the worker running
// it panics. It matches ErrWorkerPanic under errors.Is.
type PanicError struct {
	// Worker is the index of the worker that panicked.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error formats the panic without the stack (the stack rides along for
// logs and tests that want it).
func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: worker %d panicked: %v", e.Worker, e.Value)
}

// Is matches ErrWorkerPanic so callers can classify without the type.
func (e *PanicError) Is(target error) bool { return target == ErrWorkerPanic }

// process runs one leased attempt and settles it with the ledger: a
// final outcome completes the job and is delivered, a retryable failure
// is released for another attempt — delivered instead once the ledger
// reports the attempts spent.
func (w *worker) process(l *ledger.Lease) {
	s := w.srv
	j := l.Payload.(*Job)
	if l.Attempt == 1 {
		j.affinityHit = l.Hit
		s.met.placed(l.Hit)
	} else if j.worker != w.id {
		s.met.requeued()
	}
	res := w.run(j, l.Attempt)
	retire := false
	if pe := (*PanicError)(nil); errors.As(res.Err, &pe) {
		s.met.panicked()
		retire = w.restart()
	}
	// Only a worker panic is retried: an ordinary job error (a model the
	// solver rejects) would fail again, and deadline expiry and
	// cancellation are deliberate outcomes, not faults.
	if errors.Is(res.Err, ErrWorkerPanic) {
		j.lastErr = res.Err
		if s.led.Release(w.name, l.ID, l.Epoch) == nil {
			res = nil // the job's next attempt owns it now
		}
	} else if _, err := s.led.Complete(w.name, l.ID, l.Epoch); err != nil {
		res = nil // not ours to deliver
	}
	// Retire before delivering: a caller that sees the result must not
	// find the retired worker still taking work.
	if retire {
		s.retire(w)
	}
	if res != nil {
		deliver(j, res, s.met)
	}
}

// deliver hands the job its single Result.
func deliver(j *Job, res *Result, met *metrics) {
	j.result <- res // buffered: never blocks on a departed caller
	met.finished(j.Kind, res)
}

// restart replaces the worker's Session after a panic — the old one may
// hold a cache in an inconsistent state and is never reused. It reports
// whether the restart budget is spent and the worker must retire.
func (w *worker) restart() bool {
	s := w.srv
	w.sess.Store(s.newWorkerSession(w))
	w.restarts++
	if w.restarts > s.opts.MaxWorkerRestarts {
		s.met.workerRetired()
		return true
	}
	s.met.workerRestarted()
	return false
}

// retire takes the worker out of the ledger, which moves its queue to the
// surviving workers. When none survive the ledger closes, so Submit fails
// with ErrNoWorkers, and every job it still held fails here.
func (s *Server) retire(w *worker) {
	w.dead.Store(true)
	orphans := s.led.Leave(w.name)
	if s.led.Stats().Members == 0 {
		orphans = append(orphans, s.led.Close()...)
	}
	for _, it := range orphans {
		j := it.Payload.(*Job)
		deliver(j, &Result{
			Worker:      w.id,
			AffinityHit: j.affinityHit,
			Fingerprint: j.fp,
			Attempts:    it.Attempts,
			LastErr:     j.lastErr,
			Err:         fmt.Errorf("serve: worker %d retired after repeated panics: %w", w.id, ErrWorkerPanic),
		}, s.met)
	}
}

// runAttempt executes one attempt behind panic isolation: a panic
// anywhere under the job — fault hook or Session call — becomes a typed
// *PanicError on the Result instead of killing the worker goroutine.
func (w *worker) runAttempt(ctx0 context.Context, sess *repro.Session, j *Job, res *Result) {
	defer func() {
		if v := recover(); v != nil {
			res.Err = &PanicError{Worker: w.id, Value: v, Stack: debug.Stack()}
		}
	}()
	if hook := w.srv.runHook; hook != nil {
		res.Err = hook(ctx0, j)
	}
	if res.Err != nil {
		return
	}
	switch j.Kind {
	case JobCheck:
		res.Report, res.Err = sess.Check(ctx0, j.Model, j.Check)
	case JobEnforce:
		eopts := j.Enforce
		eopts.Check = j.Check
		res.Enforce, res.Err = sess.Enforce(ctx0, j.Model, eopts)
		if res.Enforce != nil {
			res.Report = res.Enforce.Final
			res.Model = j.Model
		}
	default:
		res.Err = fmt.Errorf("serve: unknown job kind %d", j.Kind)
	}
}
