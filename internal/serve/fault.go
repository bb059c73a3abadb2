package serve

import (
	"context"
	"sync"
	"time"
)

// FaultPlan is a deterministic fault-injection schedule for tests. It
// extends the runHook seam: installed with Server.InjectFaults, its hook
// runs at the start of every job attempt, numbers the attempt — globally
// and per worker, each counter 1-based in execution order — and fires
// whatever fault is registered for that number: a panic (exercising
// worker supervision and retry), an error (which is final), or added
// latency (exercising deadlines and drain windows).
// Because faults key on attempt numbers rather than wall clock, a chaos
// test decides exactly which attempt dies regardless of scheduling, and
// the same plan replays identically under -race.
//
// The zero value is an empty plan; chain the registration methods:
//
//	s.InjectFaults(new(FaultPlan).
//		PanicOnWorker(0, 1, "boom").     // worker 0's first attempt panics and is retried
//		FailOn(5, errRejected).          // 5th attempt overall fails for good
//		DelayOn(7, 50*time.Millisecond))
type FaultPlan struct {
	mu        sync.Mutex
	global    map[int64]faultSpec
	perWorker map[int]map[int64]faultSpec
	globalSeq int64
	workerSeq map[int]int64
}

// faultSpec is one registered fault. Latency applies first, then panic,
// then error — a single spec can combine them.
type faultSpec struct {
	latency    time.Duration
	panicValue any
	doPanic    bool
	err        error
}

func (p *FaultPlan) globalSpec(n int64) *faultSpec {
	if p.global == nil {
		p.global = make(map[int64]faultSpec)
	}
	s := p.global[n]
	return &s
}

func (p *FaultPlan) setGlobal(n int64, f func(*faultSpec)) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.globalSpec(n)
	f(s)
	p.global[n] = *s
	return p
}

func (p *FaultPlan) setWorker(worker int, n int64, f func(*faultSpec)) *FaultPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.perWorker == nil {
		p.perWorker = make(map[int]map[int64]faultSpec)
	}
	if p.perWorker[worker] == nil {
		p.perWorker[worker] = make(map[int64]faultSpec)
	}
	s := p.perWorker[worker][n]
	f(&s)
	p.perWorker[worker][n] = s
	return p
}

// PanicOnWorker makes the nth attempt run by the given worker panic.
func (p *FaultPlan) PanicOnWorker(worker int, n int64, value any) *FaultPlan {
	return p.setWorker(worker, n, func(s *faultSpec) { s.doPanic, s.panicValue = true, value })
}

// FailOn makes the nth attempt overall fail with err, which is final.
func (p *FaultPlan) FailOn(n int64, err error) *FaultPlan {
	return p.setGlobal(n, func(s *faultSpec) { s.err = err })
}

// DelayOn stalls the nth attempt overall by d (cut short by the job's
// deadline context, which then fails the attempt with the ctx error).
func (p *FaultPlan) DelayOn(n int64, d time.Duration) *FaultPlan {
	return p.setGlobal(n, func(s *faultSpec) { s.latency = d })
}

// hook is installed as the server's runHook. A worker-specific fault
// wins over a global one for the same attempt; the global one moves to
// the next attempt.
func (p *FaultPlan) hook(ctx context.Context, j *Job) error {
	p.mu.Lock()
	p.globalSeq++
	if p.workerSeq == nil {
		p.workerSeq = make(map[int]int64)
	}
	p.workerSeq[j.worker]++
	spec, ok := p.perWorker[j.worker][p.workerSeq[j.worker]]
	if g, clash := p.global[p.globalSeq]; ok && clash {
		// Both schedules picked this attempt: defer the global fault to
		// the next attempt without one, so every registered fault fires
		// however the attempts interleave across workers.
		delete(p.global, p.globalSeq)
		n := p.globalSeq + 1
		for _, taken := p.global[n]; taken; _, taken = p.global[n] {
			n++
		}
		p.global[n] = g
	} else if !ok {
		spec, ok = p.global[p.globalSeq]
	}
	p.mu.Unlock()
	if !ok {
		return nil
	}
	if spec.latency > 0 {
		select {
		case <-time.After(spec.latency):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if spec.doPanic {
		panic(spec.panicValue)
	}
	return spec.err
}

// InjectFaults installs the plan on the server's runHook seam. Call
// before submitting jobs; passing nil clears injection. Test-only — the
// production daemon never installs a plan.
func (s *Server) InjectFaults(p *FaultPlan) {
	if p == nil {
		s.runHook = nil
		return
	}
	s.runHook = p.hook
}
