package repro

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/passivity"
	"repro/internal/rational"
)

// ProgressKind classifies the events a Session progress sink receives.
type ProgressKind string

// Progress event kinds delivered to WithProgress sinks.
const (
	// ProgressCheck reports a completed passivity check (inside an
	// enforcement run that is one event per sweep).
	ProgressCheck ProgressKind = "check"
	// ProgressIteration reports one applied enforcement perturbation.
	ProgressIteration ProgressKind = "iteration"
	// ProgressCertificateStage reports a completed certification-pipeline
	// stage.
	ProgressCertificateStage ProgressKind = "certificate-stage"
)

// ProgressEvent is one observation of a running Session operation,
// delivered synchronously (and serialized — handlers never run
// concurrently) to the sink installed by WithProgress.
type ProgressEvent struct {
	// Kind classifies the event.
	Kind ProgressKind
	// Model is the batch model index the event belongs to, -1 for
	// single-model operations.
	Model int
	// Iteration is the 1-based enforcement sweep count (iteration events).
	Iteration int
	// MaxSigma is the worst singular value the step observed.
	MaxSigma float64
	// Passive is the step's verdict (check events).
	Passive bool
	// Stage names the certification stage (certificate-stage events).
	Stage string
	// Samples counts the σ(ω) evaluations the step spent.
	Samples int
	// Nodes counts contour-quadrature determinant evaluations
	// (certificate-stage events from the terminal counter stage).
	Nodes int
	// Declined counts the intervals a certificate stage refused at its
	// dimension gate (certificate-stage events).
	Declined int
}

// DefaultSessionCacheBudget bounds the estimated bytes a Session keeps in
// evaluation caches before whole least-recently-used model caches are
// evicted (256 MiB). Override with WithCacheBudget.
const DefaultSessionCacheBudget int64 = 256 << 20

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithWorkers sets the worker count of the session's σ fan-outs and the
// default model-level parallelism of its batch runs (0 = GOMAXPROCS,
// 1 = serial; an explicit BatchEnforceOptions.Workers still wins). Results
// do not depend on it.
func WithWorkers(n int) SessionOption {
	return func(s *Session) { s.workers = n }
}

// WithProgress installs a progress sink receiving sweep, iteration and
// certificate-stage events from every session operation. Events are
// delivered synchronously on the working goroutine but serialized across
// workers, so the sink needs no locking of its own; it must return
// quickly.
func WithProgress(fn func(ProgressEvent)) SessionOption {
	return func(s *Session) { s.progress = fn }
}

// WithCacheBudget bounds the estimated bytes of evaluation-cache state the
// session retains across calls; the least-recently-used model caches are
// evicted beyond it. bytes ≤ 0 removes the bound (not recommended for
// long-running services). The default is DefaultSessionCacheBudget.
func WithCacheBudget(bytes int64) SessionOption {
	return func(s *Session) { s.budget = bytes }
}

// sessionCache is one per-pole-set evaluation cache retained by a Session,
// with its accounting and LRU links. The cache itself knows which model
// its σ layers belong to; the session files it under its Fingerprint.
type sessionCache struct {
	cache *passivity.EvalCache
	// bytes is the estimated resident size, updated at check-in.
	bytes int64
	// sigmaN snapshots the σ entry count at check-in (or load):
	// CacheStats must not read the live cache maps, which a checked-out
	// operation may be writing concurrently.
	sigmaN int
	// busy marks the cache as checked out by a running operation (caches
	// are single-goroutine state; concurrent operations on the same pole
	// set fall back to a private transient cache).
	busy bool
	// elem is the entry's node in the session recency list.
	elem *list.Element
}

// Session is a long-lived engine for the iterative fit → weight → enforce →
// re-check workflow. It owns shared settings (worker count, progress
// sink) and — unlike the stateless root functions, which rebuild
// evaluation state on every call — a bounded pool of per-pole-set
// EvalCaches that survive across Check, Enforce, EnforceBatch and
// Extract calls: repeated sweeps over a fixed-pole model library reuse the
// σ samples instead of recomputing them — each residue variant's σ layer
// is parked in a per-cache stash while its siblings run, so a re-checked
// parameter sweep stays warm end to end. The σ layers persist across
// processes (SaveCache/LoadCache) and travel between hosts (ExportCache/
// ImportCache) as one checksummed blob format.
//
// All methods take a leading context.Context and stop cooperatively when
// it is cancelled: parallel fan-outs drain deterministically, no goroutine
// outlives the call, and enforcement methods return ctx.Err() together
// with a partial report covering the work already done.
//
// A Session is safe for concurrent use. Results are bitwise identical to
// the stateless root functions: a cache can only change where values are
// recomputed, never the values themselves.
type Session struct {
	workers  int
	progress func(ProgressEvent)
	budget   int64

	mu        sync.Mutex
	caches    map[uint64]*sessionCache
	lru       *list.List // of *sessionCache; front = most recent
	used      int64
	evictions int

	progressMu sync.Mutex
}

// NewSession builds a Session with the given options. The zero
// configuration (no options) matches the root free functions' defaults —
// in fact those functions delegate to a shared default Session.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		budget: DefaultSessionCacheBudget,
		caches: make(map[uint64]*sessionCache),
		lru:    list.New(),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// defaultSession backs the stateless root functions (CheckPassivity,
// EnforcePassivity, EnforcePassivityBatch, Extract): they are thin
// wrappers over it with a background context.
var defaultSession = NewSession()

// DefaultSession returns the shared Session behind the stateless root
// functions, so services that call them directly can inspect it
// (CacheStats) or release its memory (Reset). Its cache budget is
// DefaultSessionCacheBudget; build a private Session with NewSession to
// choose different policies.
func DefaultSession() *Session { return defaultSession }

// Reset drops every resident evaluation cache, returning the session to
// its empty cold state. Caches checked out by operations still running
// are left in place and rejoin the pool when those operations complete.
// The eviction counter is preserved.
func (s *Session) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.caches {
		if !e.busy {
			s.removeLocked(e)
		}
	}
}

// PoleFingerprint returns the FNV-1a fingerprint of the model's pole set —
// the key under which a Session retains the model's evaluation cache
// (exact bit patterns, order-sensitive). Schedulers routing work across a
// pool of Sessions use it together with HasCache to steer a model to the
// worker whose caches are already warm for its pole set; models produced
// by the same fitting run (a parameter sweep, a perturbed library) share
// fingerprints exactly when they share poles.
func PoleFingerprint(m *Macromodel) uint64 { return passivity.PoleFingerprint(m.model.Poles) }

// touchLocked moves e to the recency front, registering it on first use.
// Callers hold s.mu.
func (s *Session) touchLocked(e *sessionCache) {
	if e.elem == nil {
		e.elem = s.lru.PushFront(e)
		return
	}
	s.lru.MoveToFront(e.elem)
}

// removeLocked unlinks e from the registry. Callers hold s.mu.
func (s *Session) removeLocked(e *sessionCache) {
	s.lru.Remove(e.elem)
	e.elem = nil
	delete(s.caches, e.cache.Fingerprint())
	s.used -= e.bytes
}

// evictLocked enforces the byte budget by dropping whole caches from the
// cold end, skipping the ones checked out by running operations. Callers
// hold s.mu.
func (s *Session) evictLocked() {
	if s.budget <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.used > s.budget; {
		prev := el.Prev()
		if e := el.Value.(*sessionCache); !e.busy {
			s.removeLocked(e)
			s.evictions++
		}
		el = prev
	}
}

// measure refreshes the entry's size estimate and layer-size snapshots
// from its cache; the caller owns the cache (checked out or not yet
// installed).
func (e *sessionCache) measure() {
	e.bytes = e.cache.Bytes()
	e.sigmaN = e.cache.SigmaEntries() + e.cache.StashedSigmaEntries()
}

// checkout hands the caller the session cache for the model's pole set,
// marking it busy. The cache selects the model's residue variant
// (EvalCache.Select): a residue-variant library cycled through the session
// keeps every variant's σ samples warm, and the cleared hot seeds make a
// session-routed run sample exactly like a stateless one. When the cache
// is already checked out (a concurrent operation on the same pole set) or
// holds a different pole set under the same fingerprint, the caller gets a
// private transient cache and a nil entry.
func (s *Session) checkout(m *rational.Model) (*sessionCache, *passivity.EvalCache) {
	fp := passivity.PoleFingerprint(m.Poles)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.caches[fp]
	if e == nil {
		e = &sessionCache{cache: passivity.NewEvalCache()}
		e.cache.Select(m)
		s.caches[fp] = e
	} else if e.busy || !e.cache.Select(m) {
		return nil, passivity.NewEvalCache()
	}
	e.busy = true
	s.touchLocked(e)
	return e, e.cache
}

// checkin returns a checked-out cache, refreshing its byte estimate, and
// applies the session budget.
func (s *Session) checkin(e *sessionCache) {
	if e == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.used -= e.bytes
	e.measure()
	s.used += e.bytes
	e.busy = false
	s.evictLocked()
}

// SessionCacheStats summarizes the evaluation-cache state a Session
// currently retains.
type SessionCacheStats struct {
	// Models counts the resident pole-set caches.
	Models int
	// SigmaEntries sums the σ samples over all resident caches, including
	// the per-variant σ layers parked in each cache's stash alongside the
	// active one.
	SigmaEntries int
	// Bytes is the estimated resident size charged against the budget.
	Bytes int64
	// Evictions counts whole caches dropped by the session LRU bound.
	Evictions int
}

// CacheStats reports the session's resident cache state. Entry counts are
// the snapshots taken when each cache was last checked in, so a cache
// checked out by a running operation contributes its pre-operation counts
// (reading the live maps would race with the worker writing them).
func (s *Session) CacheStats() SessionCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionCacheStats{Models: len(s.caches), Bytes: s.used, Evictions: s.evictions}
	for _, e := range s.caches {
		st.SigmaEntries += e.sigmaN
	}
	return st
}

// HasCache reports whether the session currently retains an evaluation
// cache for the given pole-set fingerprint (see PoleFingerprint), checked
// out or not. It is the affinity probe for schedulers: a dispatcher
// steering a model to the Session that answers true here turns the
// model's checks into warm-cache hits. The answer is advisory — the LRU
// byte budget may evict the cache between the probe and the work.
func (s *Session) HasCache(fp uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.caches[fp]
	return ok
}

// progressFunc adapts the session sink to the internal event stream of
// one operation, stamping its events with the batch model index (-1 for
// single-model calls) and serializing delivery across concurrent batch
// workers.
func (s *Session) progressFunc(model int) passivity.ProgressFunc {
	if s.progress == nil {
		return nil
	}
	return func(ev passivity.ProgressEvent) {
		s.progressMu.Lock()
		defer s.progressMu.Unlock()
		s.progress(ProgressEvent{
			Kind:      ProgressKind(ev.Kind),
			Model:     model,
			Iteration: ev.Iteration,
			MaxSigma:  ev.MaxSigma,
			Passive:   ev.Passive,
			Stage:     ev.Stage,
			Samples:   ev.Samples,
			Nodes:     ev.Nodes,
			Declined:  ev.Declined,
		})
	}
}

// bind attaches the σ fan-out worker count, the session's progress sink
// for the given model tag, the call's context and the checked-out cache
// to one call's internal check options.
func (s *Session) bind(ctx context.Context, o *passivity.CheckOptions, cache *passivity.EvalCache, workers, model int) {
	o.Workers = workers
	o.Ctx = ctx
	o.Progress = s.progressFunc(model)
	o.Cache = cache
}

// Check assesses the passivity of the model like CheckPassivity, reusing
// the session's evaluation cache for the model's pole set: a repeated
// check of an unchanged model is served almost entirely from the σ layer.
// Cancelling ctx aborts cooperatively with ctx.Err().
func (s *Session) Check(ctx context.Context, m *Macromodel, opts CheckOptions) (*PassivityReport, error) {
	e, cache := s.checkout(m.model)
	iopts := opts.internal()
	s.bind(ctx, &iopts, cache, s.workers, -1)
	rep, err := passivity.Check(m.model, iopts)
	s.checkin(e)
	if err != nil {
		return nil, err
	}
	return toPublicReport(rep), nil
}

// Enforce removes passivity violations of the model in place like
// EnforcePassivity, with the session's cache, defaults, progress sink and
// cancellation. On ctx cancellation it returns the partial report of the
// sweeps already applied together with ctx.Err(); the model keeps those
// perturbations.
func (s *Session) Enforce(ctx context.Context, m *Macromodel, opts EnforceOptions) (*EnforceReport, error) {
	e, cache := s.checkout(m.model)
	rep, err := s.enforceWith(ctx, m, opts, cache, s.workers, -1)
	s.checkin(e)
	return rep, err
}

// enforceWith runs one enforcement with an explicit cache, σ fan-out
// worker count and model tag. It is the one place a Weight becomes a
// cost: the weighted path builds the model's closed-form cascade Gramian.
func (s *Session) enforceWith(ctx context.Context, m *Macromodel, opts EnforceOptions, cache *passivity.EvalCache, workers, model int) (*EnforceReport, error) {
	eopts := opts.internal()
	s.bind(ctx, &eopts.Check, cache, workers, model)
	var rep *passivity.EnforceReport
	var err error
	if opts.Weight != nil {
		rep, err = core.EnforceWeighted(m.model, opts.Weight.model, eopts)
	} else {
		rep, err = passivity.Enforce(m.model, eopts)
	}
	return toPublicEnforceReport(rep), err
}

// Fit identifies a macromodel like Fit, under the session's context: the
// call is checked for cancellation up front (the fitting solves themselves
// are not interruptible) and tagged with the session defaults where they
// apply. The fitted model's future checks and enforcements then hit the
// session cache.
func (s *Session) Fit(ctx context.Context, data *SData, opts FitOptions) (*Macromodel, *FitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return Fit(data, opts)
}

// Extract runs the paper's complete flow like Extract, routing the
// passivity check and enforcement stages through the session (shared
// caches, progress events, cancellation between and inside stages).
func (s *Session) Extract(ctx context.Context, data *SData, load *Load, opts ExtractOptions) (*ExtractResult, error) {
	return extractWith(ctx, s, data, load, opts)
}

// EnforceBatch enforces passivity on a library of macromodels like
// EnforcePassivityBatch, sharding models across workers with the session's
// per-pole-set caches: a second sweep over the same library starts with
// the σ samples of every unchanged model warm. Each model runs exactly the
// enforcement Enforce would run on it, on the worker that claimed it, so
// the per-model results are bitwise identical to sequential Enforce calls
// at every worker count. Inside a sharded run each model's σ fan-out is
// serial: model-level parallelism already saturates the cores. Progress
// events carry the model index.
//
// When ctx cancellation cuts the batch short, the returned report is
// partial — completed models keep their results, cancelled ones carry
// ctx.Err() — and the error is ctx.Err(); a cancellation arriving only
// after every model drained returns the complete report with a nil error.
func (s *Session) EnforceBatch(ctx context.Context, models []*Macromodel, opts BatchEnforceOptions) (*BatchEnforceReport, error) {
	if opts.Weights != nil && len(opts.Weights) != len(models) {
		return nil, fmt.Errorf("repro: %d weights for %d models", len(opts.Weights), len(models))
	}
	workers := opts.Workers
	if workers == 0 {
		workers = s.workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	checkWorkers := s.workers
	if workers > 1 {
		checkWorkers = 1
	}
	out := &BatchEnforceReport{
		Reports: make([]*EnforceReport, len(models)),
		Errors:  make([]error, len(models)),
		Models:  len(models),
	}
	// Caches are leased per model on the owning worker, not pinned for the
	// whole batch: at any moment only ~workers caches are checked out, so
	// the session byte budget keeps bounding resident memory even across
	// huge libraries. Duplicates of a pole set running concurrently (and
	// caches busy elsewhere) fall back to private transient caches.
	unclaimed := parallel.ForWorkerCtx(ctx, workers, len(models), func(_, i int) {
		mopts := opts.Enforce
		if opts.Weights != nil && opts.Weights[i] != nil {
			mopts.Weight = opts.Weights[i]
		}
		e, cache := s.checkout(models[i].model)
		out.Reports[i], out.Errors[i] = s.enforceWith(ctx, models[i], mopts, cache, checkWorkers, i)
		s.checkin(e)
	})
	for i, r := range out.Reports {
		if r == nil && out.Errors[i] == nil {
			out.Errors[i] = unclaimed // never claimed before the cancellation
		}
		if out.Errors[i] != nil {
			out.Failed++
		}
		if r == nil {
			continue
		}
		out.TotalIterations += r.Iterations
		out.CertifiedRescues += r.CertifiedRescues
		if r.Passive {
			out.Passive++
		}
		if r.Certificate != nil && r.Certificate.Certified {
			out.Certified++
		}
		if r.Final != nil && r.Final.MaxSigma > out.WorstSigma {
			out.WorstSigma = r.Final.MaxSigma
		}
	}
	// A cancelled context only makes the report partial if it actually cut
	// the batch short; a cancellation racing in after the last model
	// drained leaves a complete report, which callers should not retry.
	if err := ctx.Err(); err != nil {
		for _, e := range out.Errors {
			if errors.Is(e, err) {
				return out, err
			}
		}
	}
	return out, nil
}

// --- Cache persistence -------------------------------------------------

const (
	// SessionCacheExt is the filename extension of persisted session
	// caches (one file per pole-set fingerprint).
	SessionCacheExt = ".evc"
	// SessionCacheCorruptExt is appended to a cache file's name when
	// LoadCache sets it aside as unreadable or corrupt.
	SessionCacheCorruptExt = ".corrupt"
)

// ErrCacheCorrupt is wrapped by every rejection of a serialized
// evaluation cache (ImportCache, CacheBlobFingerprint, and the files
// LoadCache quarantines): bad magic, unsupported format version, CRC-64
// checksum mismatch, truncation, a count beyond what the blob can hold, a
// non-finite or negative value, or a pole fingerprint that does not match
// the poles.
var ErrCacheCorrupt = passivity.ErrCacheCorrupt

// SaveCache persists every idle resident evaluation cache to dir (created
// if missing), one file per pole-set fingerprint holding exactly the
// ExportCache blob, readable by LoadCache. Repeated library sweeps across
// process restarts then start warm: the σ layers of every residue
// variant, active or stashed, are reloaded instead of recomputed (pole
// bases are recomputed on demand). Caches checked out by concurrently
// running operations are skipped. Files are written atomically (temp
// file + rename), so a SIGINT during save leaves no torn cache behind.
func (s *Session) SaveCache(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fp := range s.CacheFingerprints() {
		blob, err := s.ExportCache(fp)
		if err != nil {
			continue // checked out or evicted since the listing
		}
		if err := writeCacheFile(dir, fp, blob); err != nil {
			return err
		}
	}
	return nil
}

func writeCacheFile(dir string, fp uint64, blob []byte) error {
	tmp, err := os.CreateTemp(dir, "cache-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, fmt.Sprintf("cache-%016x%s", fp, SessionCacheExt)))
}

// LoadCache loads every cache file SaveCache wrote to dir into the
// session. A file that cannot be read or is rejected by ImportCache —
// torn, bit-flipped, or written in an older format version — is
// quarantined: renamed to its own name plus SessionCacheCorruptExt, so
// the next load never trips over it again, and its pole set simply
// starts cold. A fingerprint already resident keeps its live cache (and
// counts as loaded); the session byte budget applies as usual. err
// covers only infrastructure failures (an unreadable directory, a rename
// that itself failed), never cache corruption, so a torn file costs one
// cold pole set, not the whole warm start.
func (s *Session) LoadCache(dir string) (loaded, quarantined int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "cache-*"+SessionCacheExt))
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		blob, loadErr := os.ReadFile(path)
		if loadErr == nil {
			_, loadErr = s.ImportCache(blob)
		}
		if loadErr == nil {
			loaded++
			continue
		}
		if renameErr := os.Rename(path, path+SessionCacheCorruptExt); renameErr != nil {
			if err == nil {
				err = fmt.Errorf("repro: quarantining %s (%v): %w", path, loadErr, renameErr)
			}
			continue
		}
		quarantined++
	}
	return loaded, quarantined, err
}

// CacheBlobFingerprint validates a serialized evaluation cache — an
// ExportCache blob or the bytes of a SaveCache file — and returns the
// pole-set fingerprint it belongs to. The whole blob is decoded and
// verified (magic, version, CRC-64 footer, bounded counts, finite values,
// fingerprint consistency) before anything is trusted, so transports and
// content-addressed stores can use it as the admission check that
// quarantines corrupt cache transfers. Rejections wrap ErrCacheCorrupt.
func CacheBlobFingerprint(blob []byte) (uint64, error) {
	c, err := passivity.DecodeEvalCache(blob)
	if err != nil {
		return 0, err
	}
	return c.Fingerprint(), nil
}

// ExportCache serializes the session's resident evaluation cache for the
// given pole-set fingerprint — its poles, residue fingerprint and σ
// layers, behind a CRC-64 footer — so the blob can be written to disk
// (SaveCache) or travel over a wire and be installed elsewhere with
// ImportCache. It fails with ErrCacheUnavailable when the session holds
// no cache for fp or the cache is checked out by a concurrently running
// operation.
func (s *Session) ExportCache(fp uint64) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.caches[fp]
	if !ok || e.busy {
		s.mu.Unlock()
		return nil, ErrCacheUnavailable
	}
	e.busy = true // pin against concurrent checkout during the encode
	s.mu.Unlock()
	blob := e.cache.Encode()
	s.mu.Lock()
	e.busy = false
	s.mu.Unlock()
	return blob, nil
}

// ErrCacheUnavailable reports that ExportCache found no resident, idle
// evaluation cache for the requested fingerprint — the session never saw
// the pole set, the LRU budget evicted it, or a running operation has it
// checked out. Callers shipping warm state treat it as "send nothing":
// the receiver simply starts cold.
var ErrCacheUnavailable = errors.New("repro: evaluation cache unavailable")

// ImportCache installs a serialized evaluation cache (an ExportCache blob
// or the bytes of a SaveCache file) into the session, returning the
// pole-set fingerprint it now answers HasCache for. The blob is fully
// validated first (see CacheBlobFingerprint) and a corrupt one is
// rejected with an error wrapping ErrCacheCorrupt, without allocating
// beyond the blob's own size or touching the session, so a torn transfer
// costs one cold pole set, never a poisoned cache. A fingerprint already
// resident is kept (the live cache is at least as warm); the session
// byte budget applies as usual.
func (s *Session) ImportCache(blob []byte) (uint64, error) {
	c, err := passivity.DecodeEvalCache(blob)
	if err != nil {
		return 0, err
	}
	fp := c.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.caches[fp]; !exists {
		e := &sessionCache{cache: c}
		e.measure()
		s.caches[fp] = e
		s.used += e.bytes
		s.touchLocked(e)
		s.evictLocked()
	}
	return fp, nil
}

// CacheFingerprints returns the pole-set fingerprints of every resident
// evaluation cache, sorted, checked out or not. Schedulers advertise the
// list as the session's warm-state catalog (see HasCache for the
// single-fingerprint probe).
func (s *Session) CacheFingerprints() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	fps := make([]uint64, 0, len(s.caches))
	for fp := range s.caches {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(a, b int) bool { return fps[a] < fps[b] })
	return fps
}
