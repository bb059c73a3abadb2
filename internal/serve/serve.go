// Package serve implements passivityd: a long-running passivity-enforcement
// service wrapping a pool of long-lived repro.Session workers behind an
// HTTP/JSON interface.
//
// The scheduling idea is pole-fingerprint cache affinity. A Session's
// evaluation caches are keyed by the FNV-1a fingerprint of a model's pole
// set (repro.PoleFingerprint), and a warm cache makes repeated checks of
// models sharing that pole set several times cheaper than cold ones. Each
// worker is a member of one internal/ledger job ledger — the same
// scheduler the cluster coordinator runs on — which places every job on
// the worker recorded for its fingerprint, else on a worker whose
// Session already holds it (Session.HasCache, so affinity survives
// process restarts through persisted cache files), else on the least
// loaded. Workers do not steal from each other: they share the host's
// cores, so a steal would trade a warm run for a cold one. On library and
// parameter sweeps, where thousands of near-identical models share a
// handful of pole sets, warm-cache hits dominate.
//
// The queue is bounded with admission control: a Submit beyond QueueDepth
// accepted-but-unfinished jobs fails with ErrQueueFull (HTTP 429), and a
// draining server fails with ErrDraining (HTTP 503). Every job carries a
// deadline mapped to context cancellation through the Session plumbing, so
// a stuck check cannot wedge a worker. Drain stops admission, lets the
// accepted jobs finish (cancelling them only if the drain context expires)
// and saves every worker's caches, so a SIGTERM loses no accepted work and
// the next process starts warm.
//
// The server is fault-tolerant (see supervise.go): every job attempt
// runs behind panic isolation, a panicking worker's Session is retired
// and rebuilt fresh (bounded by MaxWorkerRestarts, after which the
// worker leaves the ledger and the pool absorbs its load), and jobs that
// die with a worker are released back to the ledger, which requeues
// them onto a different worker up to
// Job.MaxAttempts — enforce retries restarting from a pristine model
// copy. Persisted cache files carry a checksum footer; LoadCaches
// quarantines corrupt ones instead of failing. The deterministic
// FaultPlan harness (fault.go) drives all of this from tests.
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/internal/ledger"
)

// Errors reported by Submit (mapped to HTTP statuses by the handler).
var (
	// ErrQueueFull rejects a job because QueueDepth jobs are already
	// accepted and unfinished (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects a job because the server is shutting down
	// (HTTP 503).
	ErrDraining = errors.New("serve: server draining")
)

// Options configures New.
type Options struct {
	// Workers is the number of long-lived Session workers (default:
	// GOMAXPROCS, capped at 8 — each worker parallelizes internally).
	Workers int
	// QueueDepth bounds the accepted-but-unfinished jobs across the whole
	// server; Submit beyond it returns ErrQueueFull (default 64).
	QueueDepth int
	// DefaultDeadline applies to jobs that do not carry their own
	// (default 60s).
	DefaultDeadline time.Duration
	// WorkerParallelism is the intra-check goroutine budget of each
	// worker's Session (default: GOMAXPROCS/Workers, at least 1), so a
	// fully loaded pool does not oversubscribe the host.
	WorkerParallelism int
	// CacheDir persists each worker's evaluation caches under
	// CacheDir/worker-N across Drain/restart ("" disables persistence).
	CacheDir string
	// CacheBudget bounds each worker Session's resident cache bytes
	// (0 = repro.DefaultSessionCacheBudget).
	CacheBudget int64
	// DefaultMaxAttempts applies to jobs that do not set Job.MaxAttempts
	// (default 3). Only worker panics are retried; ordinary failures,
	// deadline expiry and cancellation are final on the first attempt.
	DefaultMaxAttempts int
	// MaxWorkerRestarts bounds how many times a panicking worker's
	// Session is rebuilt before the worker is retired and its load is
	// served by the surviving pool (default 3).
	MaxWorkerRestarts int
}

// JobKind distinguishes check from enforce jobs.
type JobKind int

// Job kinds.
const (
	// JobCheck assesses passivity without modifying the model.
	JobCheck JobKind = iota
	// JobEnforce removes passivity violations from the job's model in
	// place and returns the enforced model.
	JobEnforce
)

// String names the kind on the wire and in metric labels.
func (k JobKind) String() string {
	if k == JobEnforce {
		return "enforce"
	}
	return "check"
}

// Job is one unit of work submitted to the server. The server owns the
// model after Submit succeeds (enforce jobs perturb it in place).
type Job struct {
	// Kind selects check or enforce.
	Kind JobKind
	// Model is the macromodel to process.
	Model *repro.Macromodel
	// Check tunes the passivity check (both kinds).
	Check repro.CheckOptions
	// Enforce tunes the enforcement loop (JobEnforce; its Check field is
	// overwritten by Job.Check).
	Enforce repro.EnforceOptions
	// Deadline bounds the job's wall-clock once it starts running
	// (0 = the server's DefaultDeadline). Expiry cancels the job's
	// context; the Session plumbing stops cooperatively.
	Deadline time.Duration
	// MaxAttempts bounds how many times the job may run before its last
	// error becomes final (0 = the server's DefaultMaxAttempts). A job
	// whose attempt dies with a panicking worker is requeued onto a
	// different worker — the same one only when no other is available. Enforce retries restart from a
	// pristine copy of the model, never the half-perturbed survivor of
	// the failed attempt.
	MaxAttempts int

	fp          uint64
	worker      int  // the worker running the current attempt
	affinityHit bool // the first attempt's placement was an affinity hit
	accepted    time.Time
	result      chan *Result
	lastErr     error             // most recent failed attempt's error
	pristine    *repro.Macromodel // enforce-retry restore point
}

// Result is the outcome of one job.
type Result struct {
	// Worker is the index of the worker that ran the job.
	Worker int
	// AffinityHit reports that the ledger placed the job on a worker
	// already associated with its pole-set fingerprint.
	AffinityHit bool
	// Fingerprint is the job model's pole-set fingerprint.
	Fingerprint uint64
	// QueueWait is the time the job spent queued before a worker picked
	// it up; Service is the time the worker spent running it.
	QueueWait, Service time.Duration
	// Report is the passivity report (for enforce jobs, of the final
	// model).
	Report *repro.PassivityReport
	// Enforce is the enforcement report (JobEnforce only).
	Enforce *repro.EnforceReport
	// Model is the enforced model (JobEnforce only).
	Model *repro.Macromodel
	// Attempts counts how many times the job ran (1 = no retries).
	Attempts int
	// LastErr is the error of the most recent failed attempt before the
	// delivered outcome: for a job that succeeded on a retry it records
	// why earlier attempts failed; nil when the first attempt's outcome
	// is the delivered one.
	LastErr error
	// Err is the job error; deadline expiry surfaces as
	// context.DeadlineExceeded, a worker panic as ErrWorkerPanic (a
	// *PanicError carrying the stack).
	Err error
}

// worker is one long-lived Session and the ledger member that feeds it.
type worker struct {
	id   int
	name string // ledger member name
	srv  *Server
	// sess is replaced when a panic retires the Session; the ledger's
	// warm test reads it from other goroutines.
	sess atomic.Pointer[repro.Session]
	// restarts counts Session rebuilds after panics (worker goroutine
	// only); past Options.MaxWorkerRestarts the worker retires and dead
	// flips true.
	restarts int
	dead     atomic.Bool
	// markMu guards lastMark, the base timestamp the progress sink charges
	// stage latencies from. Progress events arrive serialized (the Session
	// guarantees that) but on varying goroutines, and run() resets the
	// mark between jobs.
	markMu   sync.Mutex
	lastMark time.Time
}

// Server is the passivityd engine: admission control in front of a pool
// of Session workers, each a member of one job ledger. Build with New,
// serve HTTP with Handler, stop with Drain.
type Server struct {
	opts    Options
	workers []*worker
	byName  map[string]*worker
	led     *ledger.Ledger
	met     *metrics

	hardCtx    context.Context
	hardCancel context.CancelFunc

	draining atomic.Bool

	// notReady inverts the /healthz readiness signal (see SetReady); the
	// zero value keeps a freshly built server ready, matching embedded
	// uses that never load caches.
	notReady atomic.Bool

	wg sync.WaitGroup

	// runHook, when set by tests, runs at the start of every job with the
	// job's deadline context; its error fails the job. It gives tests a
	// deterministic way to block workers and exercise admission control,
	// deadlines and drains.
	runHook func(ctx context.Context, j *Job) error
}

// New builds the server and starts its workers. Caches are not loaded
// here — call LoadCaches to warm the pool from Options.CacheDir.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers > 8 {
			opts.Workers = 8
		}
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = 60 * time.Second
	}
	if opts.WorkerParallelism <= 0 {
		opts.WorkerParallelism = runtime.GOMAXPROCS(0) / opts.Workers
		if opts.WorkerParallelism < 1 {
			opts.WorkerParallelism = 1
		}
	}
	if opts.DefaultMaxAttempts <= 0 {
		opts.DefaultMaxAttempts = 3
	}
	if opts.MaxWorkerRestarts <= 0 {
		opts.MaxWorkerRestarts = 3
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		byName:     make(map[string]*worker),
		met:        newMetrics(),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
	}
	// Leases never expire in-process: a worker that dies mid-job is a
	// panic, which supervision turns into a release.
	s.led = ledger.New(ledger.Config{
		Limit: opts.QueueDepth,
		Warm: func(name string, fp uint64) bool {
			return s.byName[name].sess.Load().HasCache(fp)
		},
	})
	for i := 0; i < opts.Workers; i++ {
		w := &worker{id: i, name: strconv.Itoa(i), srv: s}
		w.sess.Store(s.newWorkerSession(w))
		s.workers = append(s.workers, w)
		s.byName[w.name] = w
		if _, err := s.led.Join(w.name, nil); err != nil {
			return nil, err
		}
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	return s, nil
}

// newWorkerSession builds a fresh Session for w — at startup and every
// time supervision retires a panicked one.
func (s *Server) newWorkerSession(w *worker) *repro.Session {
	sessOpts := []repro.SessionOption{
		repro.WithWorkers(s.opts.WorkerParallelism),
		repro.WithProgress(w.onProgress),
	}
	if s.opts.CacheBudget > 0 {
		sessOpts = append(sessOpts, repro.WithCacheBudget(s.opts.CacheBudget))
	}
	return repro.NewSession(sessOpts...)
}

// Workers returns the size of the worker pool.
func (s *Server) Workers() int { return len(s.workers) }

// SetReady flips the readiness the /healthz endpoint reports. A server is
// born ready; a daemon that loads persisted caches at startup marks
// itself unready first and ready once the load (and its quarantine scan)
// completes, so a fleet load balancer never routes to a cold-loading
// worker. Liveness is unaffected — the server accepts jobs either way.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports the readiness state SetReady controls (true unless
// marked otherwise).
func (s *Server) Ready() bool { return !s.notReady.Load() }

// ErrNoCache reports that no live worker Session holds a cache for the
// requested fingerprint.
var ErrNoCache = errors.New("serve: no cache for fingerprint")

// CacheFingerprints returns the union of the live workers' resident
// cache fingerprints, sorted — the server's warm-state catalog, which a
// cluster worker agent advertises to its coordinator so placement can
// follow the caches.
func (s *Server) CacheFingerprints() []uint64 {
	seen := make(map[uint64]bool)
	for _, sess := range s.liveSessions() {
		for _, fp := range sess.CacheFingerprints() {
			seen[fp] = true
		}
	}
	fps := make([]uint64, 0, len(seen))
	for fp := range seen {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(a, b int) bool { return fps[a] < fps[b] })
	return fps
}

// liveSessions returns the live workers' current Sessions.
func (s *Server) liveSessions() []*repro.Session {
	out := make([]*repro.Session, 0, len(s.workers))
	for _, w := range s.workers {
		if !w.dead.Load() {
			out = append(out, w.sess.Load())
		}
	}
	return out
}

// ExportCache serializes the evaluation cache one of the live workers
// holds for fp as a checksummed Session cache blob (see
// repro.Session.ExportCache). ErrNoCache when nobody holds it — or the
// holder has it checked out by a running job; warm-state shippers treat
// that as "send nothing".
func (s *Server) ExportCache(fp uint64) ([]byte, error) {
	for _, sess := range s.liveSessions() {
		if !sess.HasCache(fp) {
			continue
		}
		blob, err := sess.ExportCache(fp)
		if errors.Is(err, repro.ErrCacheUnavailable) {
			continue
		}
		return blob, err
	}
	return nil, ErrNoCache
}

// ImportCache validates a serialized evaluation cache and installs it
// into the worker the ledger places the fingerprint on, recording that
// placement — so the jobs the cache was shipped ahead of land on the
// worker that now holds it. A corrupt blob is rejected whole; no session
// state changes.
func (s *Server) ImportCache(blob []byte) (uint64, error) {
	fp, err := repro.CacheBlobFingerprint(blob)
	if err != nil {
		return 0, err
	}
	w := s.byName[s.led.Place(fp)]
	if w == nil {
		return 0, ErrNoWorkers
	}
	if _, err := w.sess.Load().ImportCache(blob); err != nil {
		return 0, err
	}
	return fp, nil
}

// workerCacheDir is the per-worker cache subdirectory (stable across
// restarts as long as the worker count is).
func (s *Server) workerCacheDir(id int) string {
	return filepath.Join(s.opts.CacheDir, fmt.Sprintf("worker-%d", id))
}

// LoadCaches warms every worker Session from Options.CacheDir (written
// by a previous Drain) through repro.Session.LoadCache. Unreadable,
// corrupt or older-format cache files — a crash can tear one — are
// quarantined (renamed with a .corrupt suffix, counted in
// quarantined and the quarantined_caches_total metric) and that pole set
// simply starts cold; the load never fails on corruption. The returned
// error covers only infrastructure failures. The ledger rediscovers the
// loaded fingerprints through Session.HasCache, so affinity placement
// survives restarts.
func (s *Server) LoadCaches() (quarantined int, err error) {
	if s.opts.CacheDir == "" {
		return 0, nil
	}
	var firstErr error
	for _, w := range s.workers {
		_, q, err := w.sess.Load().LoadCache(s.workerCacheDir(w.id))
		quarantined += q
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if quarantined > 0 {
		s.met.quarantined(quarantined)
	}
	return quarantined, firstErr
}

// saveCaches persists every live worker Session under Options.CacheDir
// (a retired worker's Session is fresh and holds nothing worth saving).
func (s *Server) saveCaches() error {
	if s.opts.CacheDir == "" {
		return nil
	}
	var firstErr error
	for _, w := range s.workers {
		if w.dead.Load() {
			continue
		}
		if err := w.sess.Load().SaveCache(s.workerCacheDir(w.id)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Submit admits a job to the ledger, returning the channel its Result
// will arrive on (buffered: the worker never blocks on a departed
// caller). It fails fast with ErrQueueFull when QueueDepth jobs are
// already accepted and unfinished, with ErrDraining after Drain began,
// and with ErrNoWorkers when the whole pool has been retired.
func (s *Server) Submit(j *Job) (<-chan *Result, error) {
	if j.Model == nil {
		return nil, errors.New("serve: job without a model")
	}
	maxAttempts := j.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = s.opts.DefaultMaxAttempts
	}
	// Enforce attempts perturb the model in place; keep a pristine copy
	// so a retry never resumes from a half-perturbed carcass.
	if j.Kind == JobEnforce && maxAttempts > 1 {
		j.pristine = j.Model.Clone()
	}
	if s.draining.Load() {
		s.met.rejected("draining")
		return nil, ErrDraining
	}
	ch := make(chan *Result, 1)
	j.fp = repro.PoleFingerprint(j.Model)
	j.accepted = time.Now()
	j.result = ch
	_, err := s.led.Submit(j.fp, j, maxAttempts)
	switch {
	case err == nil:
	case errors.Is(err, ledger.ErrFull):
		s.met.rejected("queue_full")
		return nil, ErrQueueFull
	case s.draining.Load():
		s.met.rejected("draining")
		return nil, ErrDraining
	default: // the ledger closed when the last worker retired
		s.met.rejected("no_workers")
		return nil, ErrNoWorkers
	}
	s.met.accepted()
	return ch, nil
}

// Drain stops admission (subsequent Submits fail with ErrDraining), waits
// for every accepted job to finish — cancelling the in-flight ones only
// if ctx expires first — then saves the worker caches to
// Options.CacheDir. Accepted jobs always receive a Result: a graceful
// drain loses no work, and the next process starts warm from the saved
// caches.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("serve: already draining")
	}
	s.led.Drain() // workers exit once the ledger is empty

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.hardCancel() // force: cancel every in-flight job context
		<-done
	}
	s.hardCancel()
	return s.saveCaches()
}

// QueueDepth reports the accepted-but-unfinished job count.
func (s *Server) QueueDepth() int { return s.led.Stats().Items }

// loop leases the worker's jobs until the ledger drains or closes, or
// the worker retires. process isolates every failure mode, so the
// goroutine (and the Drain WaitGroup behind it) survives anything a job
// does.
func (w *worker) loop() {
	defer w.srv.wg.Done()
	for {
		l, err := w.srv.led.Lease(context.Background(), w.name)
		if err != nil {
			return
		}
		w.process(l)
	}
}

// run executes one attempt of the job under its deadline context.
func (w *worker) run(j *Job, attempt int) *Result {
	start := time.Now()
	j.worker = w.id
	if attempt > 1 {
		w.srv.met.retried()
		if j.Kind == JobEnforce && j.pristine != nil {
			j.Model = j.pristine.Clone()
		}
	}
	res := &Result{
		Worker:      w.id,
		AffinityHit: j.affinityHit,
		Fingerprint: j.fp,
		Attempts:    attempt,
		LastErr:     j.lastErr,
		QueueWait:   start.Sub(j.accepted),
	}
	deadline := j.Deadline
	if deadline <= 0 {
		deadline = w.srv.opts.DefaultDeadline
	}
	ctx, cancel := context.WithTimeout(w.srv.hardCtx, deadline)
	defer cancel()

	w.markMu.Lock()
	w.lastMark = start
	w.markMu.Unlock()

	sess := w.sess.Load()
	w.runAttempt(ctx, sess, j, res)
	res.Service = time.Since(start)
	w.srv.met.cacheStats(w.id, sess.CacheStats())
	return res
}

// onProgress is the worker Session's progress sink: it charges the time
// since the last event to the event's stage and counts the σ evaluations
// and contour-quadrature nodes, feeding the per-stage latency metrics.
// Certificate-stage events are sub-labelled with the pipeline stage name
// (e.g. "certificate-stage/contour-counter") so the cost of the terminal
// counter stage is visible next to the cheaper certificate stages; check
// and iteration events keep their bare kind label.
func (w *worker) onProgress(ev repro.ProgressEvent) {
	now := time.Now()
	w.markMu.Lock()
	delta := now.Sub(w.lastMark)
	w.lastMark = now
	w.markMu.Unlock()
	label := string(ev.Kind)
	if ev.Kind == repro.ProgressCertificateStage && ev.Stage != "" {
		label += "/" + ev.Stage
	}
	w.srv.met.stage(label, delta, ev.Samples, ev.Nodes, ev.Declined)
}
