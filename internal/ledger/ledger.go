// Package ledger is the one job scheduler behind passivityd and the
// cluster coordinator. It owns the life of every admitted item — pending
// on a member's queue, leased to a member under an epoch, done — and
// every placement decision; it knows nothing of models, HTTP or
// Sessions, and an item's payload is opaque.
//
// Members run the work: the worker goroutines of one serve.Server, or the
// hosts of a cluster. Each has a FIFO queue and its own wake-up, so an
// idle member never sleeps while work waits on its queue. Placement
// follows pole-fingerprint affinity: the fingerprint's recorded placement,
// then the least-loaded member holding it warm, then the least-loaded
// member. An item that must run again — its lease expired, its member
// left, or its holder released it after a retryable failure — goes to a
// different member, or to the same one when no other exists, until its
// attempts are spent. Every lease bumps the item's epoch, and only the
// holder presenting the current epoch may complete or release it, so each
// item finishes exactly once; a finished item leaves the ledger.
package ledger

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Errors returned by the ledger.
var (
	ErrFull          = errors.New("ledger: full")           // Submit past Config.Limit
	ErrClosed        = errors.New("ledger: closed")         // closed, or draining (Lease: drained)
	ErrUnknownMember = errors.New("ledger: unknown member") // never joined, or left
	ErrUnknownItem   = errors.New("ledger: unknown item")   // finished, or never issued
	ErrStale         = errors.New("ledger: stale epoch")    // not the current lease's holder
	// ErrAttemptsSpent answers a Release of an item out of attempts: the
	// ledger has finished it and the caller delivers the failure.
	ErrAttemptsSpent = errors.New("ledger: attempts spent")
)

// maxPlacements bounds the placement map. Past it the map keeps only the
// entries whose member still holds the fingerprint warm; only if those
// alone fill it are arbitrary entries dropped.
const maxPlacements = 1 << 16

// Config configures New.
type Config struct {
	// Limit bounds the unfinished items (0 = unbounded).
	Limit int
	// LeaseTTL and WorkerTTL bound how long a lease lives without renewal
	// and a member without a call before Expire requeues or evicts them
	// (0 = never).
	LeaseTTL, WorkerTTL time.Duration
	// Steal lets a member with an empty queue take the tail of a
	// backlogged peer's. It pays between hosts, whose idle time is
	// otherwise lost and which receive shipped warm state; the workers of
	// one host share its cores, so a steal between them only trades a
	// warm run for a cold one.
	Steal bool
	// Warm reports whether a member holds a fingerprint warm, beyond the
	// catalog it advertised (nil = catalog only). It runs under the
	// ledger's lock and must not call into the ledger.
	Warm func(member string, fp uint64) bool
}

// Item is one admitted unit of work. The caller reads its fields once
// the ledger hands it back, finished.
type Item struct {
	ID          int64
	FP          uint64 // the pole-set fingerprint placement keys on
	Payload     any
	MaxAttempts int
	Attempts    int    // leases issued
	Holder      string // member queued on or leased to ("" while none can take it)

	leased bool
	hit    bool // placed by affinity, not the least-loaded fallback
	epoch  int
	expiry time.Time
}

// Lease hands one item to a member; Complete and Release echo ID and
// Epoch.
type Lease struct {
	ID      int64
	Epoch   int
	Attempt int // 1-based
	FP      uint64
	Payload any
	// Stolen marks a lease taken from another member's queue. Hit marks
	// an affinity placement (for a stolen item: the thief is warm); Warm,
	// that the member holds the fingerprint warm at lease time.
	Stolen, Hit, Warm bool
}

// Stats is a snapshot of the ledger: live members, queued, leased and
// unfinished items, and the steal, requeue and member-removal counters.
type Stats struct {
	Members, Queued, Leased, Items int
	Steals, Requeues, Leaves       int64
}

type member struct {
	name     string
	queue    []*Item
	leased   map[int64]*Item
	warm     map[uint64]bool // advertised catalog
	lastSeen time.Time
	wake     chan struct{} // buffered 1; closed when the member leaves
}

func (m *member) load() int { return len(m.queue) + len(m.leased) }

// Ledger is the scheduler; its methods are safe for concurrent use.
type Ledger struct {
	cfg Config

	mu        sync.Mutex
	items     map[int64]*Item // unfinished only
	nextID    int64
	members   []*member // in join order, the tie-break of every choice
	byName    map[string]*member
	placement map[uint64]string
	rng       *rand.Rand // non-nil: uniform random placement
	draining  bool
	closed    bool
	done      chan struct{} // closed at Close, or once a drain empties
	stats     Stats
}

// New builds an empty ledger.
func New(cfg Config) *Ledger {
	return &Ledger{
		cfg:       cfg,
		items:     make(map[int64]*Item),
		byName:    make(map[string]*member),
		placement: make(map[uint64]string),
		done:      make(chan struct{}),
	}
}

// RandomPlacement makes every placement a seeded uniform draw over the
// members: the control arm of the affinity benchmarks. Call before the
// first Submit.
func (l *Ledger) RandomPlacement(seed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rng = rand.New(rand.NewSource(seed))
}

// Join adds a member advertising the fingerprints it holds warm, and
// places the items waiting for one. A join under a live name first
// evicts the previous incarnation, as Leave does.
func (l *Ledger) Join(name string, warm []uint64) ([]*Item, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	var failed []*Item
	if old := l.byName[name]; old != nil {
		failed = l.evictLocked(old)
	}
	m := &member{name: name, leased: make(map[int64]*Item), warm: catalog(warm),
		lastSeen: time.Now(), wake: make(chan struct{}, 1)}
	l.members = append(l.members, m)
	l.byName[name] = m
	for _, it := range l.items {
		if !it.leased && it.Holder == "" {
			l.enqueueLocked(it, "")
		}
	}
	return failed, nil
}

// Leave removes a member and forgets its placements; its queue and
// leases requeue onto the others, or wait for a member to join. It
// returns the leased items whose attempts were spent, now finished.
func (l *Ledger) Leave(name string) []*Item {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.byName[name]; m != nil {
		return l.evictLocked(m)
	}
	return nil
}

// Touch records that a member is alive, replaces its advertised catalog
// when warm is non-nil, and renews the leases it names.
func (l *Ledger) Touch(name string, warm []uint64, renew []int64) error {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	m, err := l.memberLocked(name)
	if err != nil {
		return err
	}
	m.lastSeen = now
	if warm != nil {
		m.warm = catalog(warm)
	}
	for _, id := range renew {
		if it := m.leased[id]; it != nil {
			it.expiry = now.Add(l.cfg.LeaseTTL)
		}
	}
	return nil
}

// MarkWarm adds a fingerprint to a member's advertised catalog.
func (l *Ledger) MarkWarm(name string, fp uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.byName[name]; m != nil {
		m.warm[fp] = true
	}
}

// Submit admits a payload and places it; maxAttempts < 1 means one.
func (l *Ledger) Submit(fp uint64, payload any, maxAttempts int) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.draining {
		return 0, ErrClosed
	}
	if l.cfg.Limit > 0 && len(l.items) >= l.cfg.Limit {
		return 0, ErrFull
	}
	l.nextID++
	it := &Item{ID: l.nextID, FP: fp, Payload: payload, MaxAttempts: max(maxAttempts, 1)}
	l.items[it.ID] = it
	l.enqueueLocked(it, "")
	return it.ID, nil
}

// Place picks and records the member a fingerprint's next item would go
// to ("" with no member), for warm state installed ahead of the work.
func (l *Ledger) Place(fp uint64) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, _ := l.placeLocked(fp, ""); m != nil {
		return m.name
	}
	return ""
}

// Placement reports a fingerprint's recorded placement.
func (l *Ledger) Placement(fp uint64) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	name, ok := l.placement[fp]
	return name, ok
}

// Lease hands the member its next item, waiting until one is queued for
// it or it can steal one. It returns nil, nil when ctx ends first.
func (l *Ledger) Lease(ctx context.Context, name string) (*Lease, error) {
	for {
		lease, wake, err := l.tryLease(name)
		if lease != nil || err != nil {
			return lease, err
		}
		select {
		case <-wake:
		case <-l.done:
		case <-ctx.Done():
			return nil, nil
		}
	}
}

func (l *Ledger) tryLease(name string) (*Lease, <-chan struct{}, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	m, err := l.memberLocked(name)
	if err != nil {
		return nil, nil, err
	}
	m.lastSeen = now
	var it *Item
	stolen := false
	if len(m.queue) > 0 {
		it = m.queue[0]
		m.queue = slices.Delete(m.queue, 0, 1)
	} else if v := l.victimLocked(m); v != nil {
		// The tail is the work the victim would reach last; the placement
		// follows the thief so queued siblings migrate with the cache.
		it = v.queue[len(v.queue)-1]
		v.queue = slices.Delete(v.queue, len(v.queue)-1, len(v.queue))
		stolen = true
		l.stats.Steals++
		if l.rng == nil {
			l.recordLocked(it.FP, m.name)
		}
	}
	if it == nil {
		return nil, m.wake, nil
	}
	warm := l.warmLocked(m, it.FP)
	if stolen {
		it.hit = warm
	}
	it.leased, it.Holder, it.expiry = true, m.name, now.Add(l.cfg.LeaseTTL)
	it.epoch++
	it.Attempts++
	m.leased[it.ID] = it
	if len(m.queue) > 0 {
		l.wakeLocked(m) // another poller of the same member
	}
	return &Lease{ID: it.ID, Epoch: it.epoch, Attempt: it.Attempts, FP: it.FP,
		Payload: it.Payload, Stolen: stolen, Hit: it.hit, Warm: warm}, nil, nil
}

// memberLocked resolves a live member of an open ledger (a drained one
// counts as closed).
func (l *Ledger) memberLocked(name string) (*member, error) {
	if l.closed {
		return nil, ErrClosed
	}
	if m := l.byName[name]; m != nil {
		return m, nil
	}
	return nil, ErrUnknownMember
}

// victimLocked picks whom a thief steals from: the longest queue among
// the genuinely backlogged — running with more queued, or a queue of two
// or more. Taking an idle peer's single item is churn, not throughput.
func (l *Ledger) victimLocked(thief *member) *member {
	if !l.cfg.Steal {
		return nil
	}
	var victim *member
	for _, v := range l.members {
		if v != thief && (len(v.queue) >= 2 || len(v.queue) == 1 && len(v.leased) > 0) &&
			(victim == nil || len(v.queue) > len(victim.queue)) {
			victim = v
		}
	}
	return victim
}

// Complete finishes a leased item and hands it back.
func (l *Ledger) Complete(name string, id int64, epoch int) (*Item, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	it, err := l.heldLocked(name, id, epoch)
	if err != nil {
		return nil, err
	}
	l.finishLocked(it)
	return it, nil
}

// Release gives a leased item back after a retryable failure, to be
// requeued — or finished, with ErrAttemptsSpent.
func (l *Ledger) Release(name string, id int64, epoch int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	it, err := l.heldLocked(name, id, epoch)
	if err != nil {
		return err
	}
	delete(l.byName[name].leased, id)
	if l.requeueLocked(it, name) {
		return ErrAttemptsSpent
	}
	return nil
}

func (l *Ledger) heldLocked(name string, id int64, epoch int) (*Item, error) {
	it := l.items[id]
	if it == nil {
		return nil, ErrUnknownItem
	}
	if m := l.byName[name]; m != nil {
		m.lastSeen = time.Now()
	}
	if !it.leased || it.epoch != epoch || it.Holder != name {
		return nil, ErrStale
	}
	return it, nil
}

// Expire evicts the members silent past WorkerTTL and requeues the
// leases unrenewed past LeaseTTL, returning the items whose attempts
// were spent, now finished.
func (l *Ledger) Expire(now time.Time) []*Item {
	l.mu.Lock()
	defer l.mu.Unlock()
	var failed []*Item
	for _, m := range slices.Clone(l.members) {
		if l.cfg.WorkerTTL > 0 && now.Sub(m.lastSeen) > l.cfg.WorkerTTL {
			failed = append(failed, l.evictLocked(m)...)
		}
	}
	for _, m := range l.members {
		for id, it := range m.leased {
			if l.cfg.LeaseTTL > 0 && now.After(it.expiry) {
				delete(m.leased, id)
				if l.requeueLocked(it, m.name) {
					failed = append(failed, it)
				}
			}
		}
	}
	return failed
}

// Drain stops admission; Lease reports ErrClosed once every item has
// finished.
func (l *Ledger) Drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.draining = true
	l.signalDoneLocked()
}

// Close stops the ledger and hands back every unfinished item, in
// admission order, for the caller to fail.
func (l *Ledger) Close() []*Item {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	out := make([]*Item, 0, len(l.items))
	for _, it := range l.items {
		out = append(out, it)
	}
	slices.SortFunc(out, func(a, b *Item) int { return cmp.Compare(a.ID, b.ID) })
	clear(l.items)
	for _, m := range l.members {
		m.queue = nil
		clear(m.leased)
	}
	l.closed = true
	close(l.done)
	return out
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Members, s.Items = len(l.members), len(l.items)
	for _, m := range l.members {
		s.Queued += len(m.queue)
		s.Leased += len(m.leased)
	}
	return s
}

// enqueueLocked places a pending item — on the excluded member only when
// no other exists, nowhere (until the next Join) when none does — and
// wakes whoever can run it.
func (l *Ledger) enqueueLocked(it *Item, exclude string) {
	it.leased, it.Holder = false, ""
	m, hit := l.placeLocked(it.FP, exclude)
	if m == nil && exclude != "" {
		m, hit = l.placeLocked(it.FP, "")
	}
	if m == nil {
		return
	}
	it.Holder, it.hit = m.name, hit
	m.queue = append(m.queue, it)
	l.wakeLocked(m)
	if l.cfg.Steal && (len(m.queue) >= 2 || len(m.leased) > 0) {
		for _, v := range l.members { // idle members may steal now
			if len(v.queue) == 0 {
				l.wakeLocked(v)
			}
		}
	}
}

// requeueLocked puts a leased item back to pending or, with its attempts
// spent, finishes it and reports true.
func (l *Ledger) requeueLocked(it *Item, exclude string) bool {
	if it.Attempts >= it.MaxAttempts {
		l.finishLocked(it)
		return true
	}
	l.stats.Requeues++
	l.enqueueLocked(it, exclude)
	return false
}

// evictLocked removes a member, forgets its placements and requeues its
// work, returning the leased items whose attempts were spent.
func (l *Ledger) evictLocked(m *member) []*Item {
	l.members = slices.DeleteFunc(l.members, func(v *member) bool { return v == m })
	delete(l.byName, m.name)
	close(m.wake)
	l.stats.Leaves++
	for fp, name := range l.placement {
		if name == m.name {
			delete(l.placement, fp)
		}
	}
	for _, it := range m.queue {
		l.enqueueLocked(it, m.name)
	}
	var failed []*Item
	for _, it := range m.leased {
		if l.requeueLocked(it, m.name) {
			failed = append(failed, it)
		}
	}
	return failed
}

func (l *Ledger) finishLocked(it *Item) {
	if m := l.byName[it.Holder]; m != nil {
		delete(m.leased, it.ID)
	}
	it.leased = false
	delete(l.items, it.ID)
	l.signalDoneLocked()
}

// signalDoneLocked closes a drained ledger, releasing every waiting Lease.
func (l *Ledger) signalDoneLocked() {
	if l.draining && !l.closed && len(l.items) == 0 {
		l.closed = true
		close(l.done)
	}
}

// wakeLocked wakes a member's waiting Lease; one pending token is
// enough, the woken Lease rescans.
func (l *Ledger) wakeLocked(m *member) {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// placeLocked picks the member for a fingerprint, never the excluded
// one, and reports whether the choice was an affinity hit: the recorded
// placement, then the least-loaded warm member, then the least-loaded
// member (a uniform draw under RandomPlacement). Ties go to the earliest
// joined.
func (l *Ledger) placeLocked(fp uint64, exclude string) (*member, bool) {
	if l.rng != nil {
		live := slices.DeleteFunc(slices.Clone(l.members), func(m *member) bool { return m.name == exclude })
		if len(live) == 0 {
			return nil, false
		}
		return live[l.rng.Intn(len(live))], false
	}
	if m := l.byName[l.placement[fp]]; m != nil && m.name != exclude {
		return m, true
	}
	var best, bestWarm *member
	for _, m := range l.members {
		if m.name == exclude {
			continue
		}
		if best == nil || m.load() < best.load() {
			best = m
		}
		if l.warmLocked(m, fp) && (bestWarm == nil || m.load() < bestWarm.load()) {
			bestWarm = m
		}
	}
	if bestWarm != nil {
		best = bestWarm
	}
	if best != nil {
		l.recordLocked(fp, best.name)
	}
	return best, bestWarm != nil
}

func (l *Ledger) warmLocked(m *member, fp uint64) bool {
	return m.warm[fp] || (l.cfg.Warm != nil && l.cfg.Warm(m.name, fp))
}

// recordLocked records a placement, shrinking a full map first.
func (l *Ledger) recordLocked(fp uint64, name string) {
	if _, ok := l.placement[fp]; !ok && len(l.placement) >= maxPlacements {
		for f, n := range l.placement {
			if m := l.byName[n]; m == nil || !l.warmLocked(m, f) {
				delete(l.placement, f)
			}
		}
		for f := range l.placement {
			if len(l.placement) < maxPlacements {
				break
			}
			delete(l.placement, f)
		}
	}
	l.placement[fp] = name
}

func catalog(fps []uint64) map[uint64]bool {
	out := make(map[uint64]bool, len(fps))
	for _, fp := range fps {
		out[fp] = true
	}
	return out
}
