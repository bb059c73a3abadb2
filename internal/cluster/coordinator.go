package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	repro "repro"
	"repro/internal/ledger"
	"repro/internal/serve"
)

// Errors of the coordinator's admission and worker surfaces.
var (
	// ErrTooManyPending rejects a Submit because MaxPending items are
	// already admitted and unfinished (HTTP 429 with a Retry-After hint).
	ErrTooManyPending = errors.New("cluster: job ledger full")
	// ErrClosed rejects work on a coordinator that has been closed.
	ErrClosed = errors.New("cluster: coordinator closed")
	// ErrUnknownWorker answers lease/heartbeat calls from a member the
	// coordinator does not consider live (HTTP 410 — the agent re-joins).
	ErrUnknownWorker = errors.New("cluster: unknown or lost worker")
)

// Options configures NewCoordinator.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the item is requeued onto a different host, or the same one when it
	// is the only one (default 15s).
	LeaseTTL time.Duration
	// WorkerTTL is how long a member may stay silent — no lease, complete
	// or heartbeat call — before it is declared lost and everything it
	// holds is requeued (default 3×LeaseTTL).
	WorkerTTL time.Duration
	// PollWait bounds how long a lease long-poll is held open when no
	// work is available (default 2s).
	PollWait time.Duration
	// DefaultMaxAttempts is how many times an item may be leased before a
	// lease expiry becomes its terminal failure (default 3). Results
	// reported by a live worker — success or error — are always terminal:
	// the worker already ran the serve layer's own retry ladder.
	DefaultMaxAttempts int
	// MaxPending bounds admitted-but-unfinished items (default 4096).
	MaxPending int
	// CacheBudget bounds the content-addressed warm-state store's bytes
	// (default 256 MiB).
	CacheBudget int64
}

// item is one client job: a single model's check or enforce, its
// admitted (pristine) model bytes, and the result slot. It is the
// payload of one ledger item.
type item struct {
	kind       serve.JobKind
	model      json.RawMessage
	check      serve.CheckSpec
	enforce    serve.EnforceSpec
	deadlineMS int64

	resp   serve.Response
	status int
	done   chan struct{} // closed exactly once, when the result lands
}

// Coordinator serves the cluster job ledger over HTTP: admission, lease
// lifecycle, result delivery, and the content-addressed warm-state
// store. Placement, stealing, requeue and the attempt bound are the
// ledger's. Build with NewCoordinator, serve HTTP with Handler, stop with
// Close.
type Coordinator struct {
	opts  Options
	met   *clusterMetrics
	store *cacheStore
	led   *ledger.Ledger

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewCoordinator builds the coordinator and starts its lease-expiry
// sweeper.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.WorkerTTL <= 0 {
		opts.WorkerTTL = 3 * opts.LeaseTTL
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 2 * time.Second
	}
	if opts.DefaultMaxAttempts <= 0 {
		opts.DefaultMaxAttempts = 3
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}
	if opts.CacheBudget <= 0 {
		opts.CacheBudget = 256 << 20
	}
	c := &Coordinator{
		opts:  opts,
		met:   newClusterMetrics(),
		store: newCacheStore(opts.CacheBudget),
		led: ledger.New(ledger.Config{
			Limit:     opts.MaxPending,
			LeaseTTL:  opts.LeaseTTL,
			WorkerTTL: opts.WorkerTTL,
			Steal:     true,
		}),
		stop: make(chan struct{}),
	}
	c.wg.Add(1)
	go c.sweeper()
	return c
}

// sweeper expires leases and lost workers even when no protocol call
// arrives to trigger the scan — without it, a dead fleet would leave
// submitters waiting forever.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.failLost(c.led.Expire(now))
		}
	}
}

// failLost fails the items whose host was lost on their last allowed
// attempt.
func (c *Coordinator) failLost(items []*ledger.Item) {
	for _, li := range items {
		c.fail(li, http.StatusInternalServerError,
			fmt.Sprintf("lease expired on %q after %d attempt(s); worker lost", li.Holder, li.Attempts))
	}
}

// Close stops the coordinator: the sweeper exits, every unfinished item
// fails with a 503 result, and subsequent submissions are rejected.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		for _, li := range c.led.Close() {
			c.fail(li, http.StatusServiceUnavailable, "coordinator shutting down")
		}
		c.wg.Wait()
	})
}

// closed reports whether Close has begun.
func (c *Coordinator) closed() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// Submit admits one job to the ledger and returns the item whose done
// channel closes when the result lands. The model bytes are validated
// (and fingerprinted) here, so every later lease ships a model the
// coordinator knows decodes.
func (c *Coordinator) Submit(kind serve.JobKind, model json.RawMessage, check serve.CheckSpec, enforce serve.EnforceSpec, deadlineMS int64, maxAttempts int) (*item, error) {
	var m repro.Macromodel
	if err := json.Unmarshal(model, &m); err != nil {
		return nil, fmt.Errorf("cluster: decoding model: %w", err)
	}
	if maxAttempts <= 0 {
		maxAttempts = c.opts.DefaultMaxAttempts
	}
	it := &item{
		kind:       kind,
		model:      model,
		check:      check,
		enforce:    enforce,
		deadlineMS: deadlineMS,
		done:       make(chan struct{}),
	}
	if _, err := c.led.Submit(repro.PoleFingerprint(&m), it, maxAttempts); err != nil {
		if errors.Is(err, ledger.ErrFull) {
			c.met.rejected()
			return nil, ErrTooManyPending
		}
		return nil, ErrClosed
	}
	c.met.submitted()
	return it, nil
}

// Join registers (or re-registers) a worker host. A re-join with a live
// name requeues everything the previous incarnation held — the old agent
// is gone; its leases would only expire later anyway.
func (c *Coordinator) Join(req *JoinRequest) (*JoinResponse, error) {
	if req.Name == "" {
		return nil, errors.New("cluster: join without a name")
	}
	lost, err := c.led.Join(req.Name, parseCatalog(req.Fingerprints))
	if err != nil {
		return nil, ErrClosed
	}
	c.failLost(lost)
	c.met.joined()
	return &JoinResponse{
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		PollWaitMS:  c.opts.PollWait.Milliseconds(),
		HeartbeatMS: (c.opts.LeaseTTL / 3).Milliseconds(),
	}, nil
}

// memberErr maps the ledger's member errors to the worker surface's.
func memberErr(err error) error {
	if errors.Is(err, ledger.ErrUnknownMember) {
		return ErrUnknownWorker
	}
	return ErrClosed
}

// parseCatalog decodes a worker-advertised %016x fingerprint list (nil
// for a nil list: nothing advertised). Unparseable entries are dropped —
// an agent bug must not poison the whole catalog.
func parseCatalog(ss []string) []uint64 {
	if ss == nil {
		return nil
	}
	fps := make([]uint64, 0, len(ss))
	for _, s := range ss {
		if fp, err := strconv.ParseUint(s, 16, 64); err == nil {
			fps = append(fps, fp)
		}
	}
	return fps
}

// Lease hands the next work item to a member, long-polling up to
// PollWait. A nil response with nil error means "no work right now"
// (HTTP 204). An idle member whose own queue is empty steals from the
// tail of the most-loaded peer's queue.
func (c *Coordinator) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	if err := c.led.Touch(req.Worker, parseCatalog(req.Fingerprints), nil); err != nil {
		return nil, memberErr(err)
	}
	ctx, cancel := context.WithTimeout(ctx, c.opts.PollWait)
	defer cancel()
	l, err := c.led.Lease(ctx, req.Worker)
	if l == nil || err != nil {
		if err != nil {
			err = memberErr(err)
		}
		return nil, err
	}
	it := l.Payload.(*item)
	c.met.leased(l.Warm)
	resp := &LeaseResponse{
		Item:        l.ID,
		Epoch:       l.Epoch,
		Kind:        it.kind.String(),
		Model:       it.model,
		Check:       it.check,
		Enforce:     it.enforce,
		DeadlineMS:  it.deadlineMS,
		Fingerprint: fmt.Sprintf("%016x", l.FP),
		Stolen:      l.Stolen,
		WantCache:   !l.Warm,
	}
	if !l.Warm {
		// Ship the warm cache ahead of the model when the store holds one
		// this host lacks.
		if addr := c.store.latestAddr(l.FP); addr != "" {
			resp.CacheAddr = addr
			c.met.shipped()
		}
	}
	return resp, nil
}

// Heartbeat renews a member's liveness and the leases of the items it
// reports in flight.
func (c *Coordinator) Heartbeat(req *HeartbeatRequest) error {
	if err := c.led.Touch(req.Worker, parseCatalog(req.Fingerprints), req.Items); err != nil {
		return memberErr(err)
	}
	return nil
}

// Complete records one item's result. Only a completion presenting the
// item's current epoch from its current holder is accepted; anything
// else — a duplicate from a host whose lease expired and whose item
// already ran elsewhere, an unknown item id — is discarded, so every
// item's result is delivered exactly once. An accepted completion also
// ingests the optional cache upload: validated, content-addressed,
// catalogued; a corrupt blob is quarantined without touching the result.
func (c *Coordinator) Complete(req *CompleteRequest) *CompleteResponse {
	li, err := c.led.Complete(req.Worker, req.Item, req.Epoch)
	switch {
	case errors.Is(err, ledger.ErrUnknownItem):
		c.met.duplicate()
		return &CompleteResponse{Accepted: false, Reason: "unknown item"}
	case err != nil:
		c.met.duplicate()
		return &CompleteResponse{Accepted: false, Reason: "stale epoch"}
	}
	it := li.Payload.(*item)
	it.resp = req.Response
	it.resp.Attempts = li.Attempts // cluster-level attempts supersede host-local counts
	status := req.Status
	if status == 0 {
		status = http.StatusOK
	}
	// Ingest the upload before releasing the result: a caller that sees
	// the result must also see the warm cache stored, or the next
	// same-fingerprint lease ships nothing.
	if len(req.Cache) > 0 {
		if _, _, err := c.store.put(req.Cache); err != nil {
			c.met.quarantinedUpload()
		} else {
			c.met.cacheTransferred(len(req.Cache))
		}
	}
	// The host just ran the model; its serve layer holds the cache.
	c.led.MarkWarm(req.Worker, li.FP)
	c.finish(it, status)
	c.met.completed(it.kind.String(), status)
	return &CompleteResponse{Accepted: true}
}

// fail records a terminal failure result for an item the ledger let go.
func (c *Coordinator) fail(li *ledger.Item, status int, msg string) {
	it := li.Payload.(*item)
	it.resp = serve.Response{Error: msg, Attempts: li.Attempts, Fingerprint: fmt.Sprintf("%016x", li.FP)}
	c.finish(it, status)
	c.met.failed()
}

// finish releases an item's waiter. The ledger hands each item back
// exactly once, so this runs once per item.
func (c *Coordinator) finish(it *item, status int) {
	it.status = status
	it.model = nil
	close(it.done)
}

// CacheBlob serves a stored warm-state blob by content address (nil when
// evicted), counting the downstream transfer.
func (c *Coordinator) CacheBlob(addr string) []byte {
	blob := c.store.get(addr)
	if blob != nil {
		c.met.cacheTransferred(len(blob))
	}
	return blob
}
