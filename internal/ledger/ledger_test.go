package ledger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// now returns a context that is already done: Lease then tries once and
// never waits.
func now() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func join(t *testing.T, l *Ledger, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := l.Join(n, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func submit(t *testing.T, l *Ledger, fp uint64, attempts int) int64 {
	t.Helper()
	id, err := l.Submit(fp, fmt.Sprint("job ", fp), attempts)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// load reports a member's queued and leased counts, ok false when it is
// not a member.
func load(l *Ledger, name string) (queued, leased int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.byName[name]
	if m == nil {
		return 0, 0, false
	}
	return len(m.queue), len(m.leased), true
}

func lease(t *testing.T, l *Ledger, member string) *Lease {
	t.Helper()
	ls, err := l.Lease(now(), member)
	if err != nil || ls == nil {
		t.Fatalf("lease %s: %v, %v", member, ls, err)
	}
	return ls
}

// TestPlacementOrder: the recorded placement wins, then the least-loaded
// warm member (advertised catalog or the Warm callback), then the least
// loaded; ties go to the earliest joined.
func TestPlacementOrder(t *testing.T) {
	l := New(Config{Warm: func(m string, fp uint64) bool { return m == "c" && fp == 30 }})
	join(t, l, "a", "b")
	if _, err := l.Join("c", []uint64{20}); err != nil {
		t.Fatal(err)
	}
	submit(t, l, 10, 1) // cold: least loaded, tie → a
	submit(t, l, 11, 1) // cold: b (a has one queued)
	submit(t, l, 20, 1) // catalog-warm on c
	submit(t, l, 30, 1) // callback-warm on c, though c is loaded
	submit(t, l, 10, 1) // recorded placement: a, though a is loaded
	for fp, want := range map[uint64]string{10: "a", 11: "b", 20: "c", 30: "c"} {
		if got, _ := l.Placement(fp); got != want {
			t.Errorf("fp %d placed on %q, want %q", fp, got, want)
		}
	}
	for m, want := range map[string]int{"a": 2, "b": 1, "c": 2} {
		if q, _, _ := load(l, m); q != want {
			t.Errorf("%s queues %d, want %d", m, q, want)
		}
	}
	if got := l.Place(11); got != "b" {
		t.Errorf("Place(11) = %q, want the recorded b", got)
	}
	// Hit marks affinity placements; Warm is the member's state at lease
	// time.
	for _, want := range []struct {
		member    string
		fp        uint64
		hit, warm bool
	}{{"a", 10, false, false}, {"a", 10, true, false}, {"c", 20, true, true}, {"c", 30, true, true}} {
		if ls := lease(t, l, want.member); ls.FP != want.fp || ls.Hit != want.hit || ls.Warm != want.warm {
			t.Errorf("lease on %s: fp %d hit %v warm %v, want fp %d hit %v warm %v",
				want.member, ls.FP, ls.Hit, ls.Warm, want.fp, want.hit, want.warm)
		}
	}
}

// TestCompleteExactlyOnce: only the current holder with the current
// epoch completes, a finished item leaves the ledger, and nothing about
// it is accepted afterwards.
func TestCompleteExactlyOnce(t *testing.T) {
	l := New(Config{})
	join(t, l, "a", "b")
	id := submit(t, l, 1, 3)
	ls := lease(t, l, "a")
	if ls.ID != id || ls.Epoch != 1 || ls.Attempt != 1 {
		t.Fatalf("lease %+v", ls)
	}
	if _, err := l.Complete("b", id, ls.Epoch); !errors.Is(err, ErrStale) {
		t.Fatalf("non-holder completion: %v, want ErrStale", err)
	}
	if _, err := l.Complete("a", id, ls.Epoch+1); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-epoch completion: %v, want ErrStale", err)
	}
	it, err := l.Complete("a", id, ls.Epoch)
	if err != nil || it.Payload != "job 1" || it.Attempts != 1 {
		t.Fatalf("completion: %+v, %v", it, err)
	}
	if _, err := l.Complete("a", id, ls.Epoch); !errors.Is(err, ErrUnknownItem) {
		t.Fatalf("second completion: %v, want ErrUnknownItem", err)
	}
	if st := l.Stats(); st.Items != 0 || st.Leased != 0 {
		t.Fatalf("stats after completion %+v", st)
	}
}

// TestReleaseRequeue: a released item moves to a different member with a
// new epoch, back to the same member when it is alone, and is handed
// back once its attempts are spent.
func TestReleaseRequeue(t *testing.T) {
	l := New(Config{})
	join(t, l, "a", "b")
	id := submit(t, l, 1, 3)
	first := lease(t, l, "a")
	if err := l.Release("a", id, first.Epoch); err != nil {
		t.Fatalf("release: %v", err)
	}
	if got, _ := l.Placement(1); got != "b" {
		t.Fatalf("placement %q after requeue, want b", got)
	}
	second := lease(t, l, "b")
	if second.Epoch != first.Epoch+1 || second.Attempt != 2 {
		t.Fatalf("second lease %+v", second)
	}
	if err := l.Release("a", id, first.Epoch); !errors.Is(err, ErrStale) {
		t.Fatalf("stale release: %v", err)
	}
	l.Leave("a")
	if err := l.Release("b", id, second.Epoch); err != nil {
		t.Fatalf("release with b alone: %v", err)
	}
	if q, _, _ := load(l, "b"); q != 1 {
		t.Fatalf("b queues %d after releasing with no peer, want 1", q)
	}
	third := lease(t, l, "b")
	if err := l.Release("b", id, third.Epoch); !errors.Is(err, ErrAttemptsSpent) {
		t.Fatalf("release after 3 of 3 attempts: %v, want ErrAttemptsSpent", err)
	}
	if st := l.Stats(); st.Items != 0 || st.Requeues != 2 {
		t.Fatalf("stats %+v, want no items and 2 requeues", st)
	}
}

// TestExpire: an unrenewed lease requeues with a fresh epoch (onto the
// same member when it is the only one), a renewed one stays, a silent
// member is evicted, and an item out of attempts is handed back.
func TestExpire(t *testing.T) {
	l := New(Config{LeaseTTL: time.Second, WorkerTTL: time.Hour})
	join(t, l, "a")
	id := submit(t, l, 1, 2)
	kept := submit(t, l, 2, 2)
	t0 := time.Now()
	first := lease(t, l, "a")
	renewed := lease(t, l, "a")
	time.Sleep(50 * time.Millisecond) // the renewal must land measurably later
	if err := l.Touch("a", nil, []int64{renewed.ID}); err != nil {
		t.Fatal(err)
	}
	if failed := l.Expire(t0.Add(time.Second + 25*time.Millisecond)); len(failed) != 0 {
		t.Fatalf("first expiry failed %d items", len(failed))
	}
	again := lease(t, l, "a")
	if again.ID != id || again.Epoch != first.Epoch+1 {
		t.Fatalf("re-lease %+v, want item %d at epoch %d", again, id, first.Epoch+1)
	}
	if _, _, ok := load(l, "a"); !ok {
		t.Fatal("a evicted before its worker TTL")
	}
	failed := l.Expire(t0.Add(2 * time.Hour))
	if len(failed) != 1 || failed[0].ID != id || failed[0].Holder != "a" {
		t.Fatalf("eviction handed back %v, want item %d", failed, id)
	}
	if _, _, ok := load(l, "a"); ok {
		t.Fatal("silent member not evicted")
	}
	// The other item has attempts left: it waits for the next member.
	join(t, l, "b")
	if ls := lease(t, l, "b"); ls.ID != kept {
		t.Fatalf("b leased %d, want the parked item %d", ls.ID, kept)
	}
}

// TestJoinPlacesParkedAndRejoinEvicts: work admitted with no members
// waits, a join places it, and a re-join under a live name requeues what
// the previous incarnation held.
func TestJoinPlacesParkedAndRejoinEvicts(t *testing.T) {
	l := New(Config{})
	id := submit(t, l, 1, 3)
	if st := l.Stats(); st.Items != 1 || st.Queued != 0 {
		t.Fatalf("parked stats %+v", st)
	}
	join(t, l, "a")
	first := lease(t, l, "a")
	join(t, l, "a")
	second := lease(t, l, "a")
	if second.ID != id || second.Epoch != first.Epoch+1 {
		t.Fatalf("lease after re-join %+v", second)
	}
	if _, err := l.Complete("a", id, first.Epoch); !errors.Is(err, ErrStale) {
		t.Fatalf("old incarnation's completion: %v", err)
	}
	if st := l.Stats(); st.Leaves != 1 || st.Requeues != 1 {
		t.Fatalf("stats %+v, want 1 leave and 1 requeue", st)
	}
}

// TestSteal: with stealing on, an idle member takes the tail of a
// backlogged peer's queue and the placement follows it; with it off, it
// waits.
func TestSteal(t *testing.T) {
	for _, steal := range []bool{true, false} {
		l := New(Config{Steal: steal})
		join(t, l, "a", "b")
		var ids []int64
		for i := 0; i < 3; i++ {
			ids = append(ids, submit(t, l, 7, 1))
		}
		ls, err := l.Lease(now(), "b")
		if !steal {
			if ls != nil || err != nil {
				t.Fatalf("lease without stealing: %+v, %v", ls, err)
			}
			continue
		}
		if ls == nil || !ls.Stolen || ls.ID != ids[2] {
			t.Fatalf("steal: %+v, %v; want the tail item %d", ls, err, ids[2])
		}
		if got, _ := l.Placement(7); got != "b" {
			t.Fatalf("placement %q after the steal, want b", got)
		}
		// A single queued item on an idle peer is not worth stealing.
		lease(t, l, "a")
		if _, err := l.Complete("b", ls.ID, ls.Epoch); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Steals != 1 {
			t.Fatalf("steals %d, want 1", st.Steals)
		}
	}
}

// TestRandomPlacement: the control arm spreads one fingerprint over
// every member and records nothing.
func TestRandomPlacement(t *testing.T) {
	l := New(Config{})
	l.RandomPlacement(7)
	join(t, l, "a", "b", "c")
	for i := 0; i < 30; i++ {
		submit(t, l, 1, 1)
	}
	for _, m := range []string{"a", "b", "c"} {
		if q, _, _ := load(l, m); q == 0 {
			t.Errorf("random placement left %s empty", m)
		}
	}
	if _, ok := l.Placement(1); ok {
		t.Error("random placement recorded a placement")
	}
}

// TestPlacementBound: a full placement map keeps the entries whose
// member still holds the fingerprint warm.
func TestPlacementBound(t *testing.T) {
	l := New(Config{Warm: func(_ string, fp uint64) bool { return fp%2 == 0 && fp < 100 }})
	join(t, l, "a")
	for fp := uint64(0); fp < maxPlacements+1; fp++ {
		l.Place(fp)
	}
	if n := len(l.placement); n != 51 {
		t.Fatalf("placement map holds %d entries after overflow, want the 50 warm ones plus the new one", n)
	}
	if _, ok := l.Placement(98); !ok {
		t.Fatal("warm entry dropped")
	}
}

// TestDrainAndClose: a draining ledger rejects work and ends every Lease
// once it is empty; Close hands back whatever is unfinished.
func TestDrainAndClose(t *testing.T) {
	l := New(Config{Limit: 2})
	join(t, l, "a")
	id := submit(t, l, 1, 1)
	submit(t, l, 2, 1)
	if _, err := l.Submit(3, nil, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("submit past the limit: %v", err)
	}
	l.Drain()
	if _, err := l.Submit(3, nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit while draining: %v", err)
	}
	ls := lease(t, l, "a")
	if ls.ID != id {
		t.Fatalf("drain lost FIFO order: leased %d", ls.ID)
	}
	rest := l.Close()
	if len(rest) != 2 {
		t.Fatalf("Close handed back %d items, want 2", len(rest))
	}
	if _, err := l.Lease(context.Background(), "a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("lease after close: %v", err)
	}
	if len(l.Close()) != 0 {
		t.Fatal("second Close handed items back")
	}

	l = New(Config{})
	join(t, l, "a")
	id = submit(t, l, 1, 1)
	ls = lease(t, l, "a")
	l.Drain()
	waiting := make(chan error, 1)
	go func() {
		_, err := l.Lease(context.Background(), "a")
		waiting <- err
	}()
	if _, err := l.Complete("a", id, ls.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := <-waiting; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiting lease after the drain emptied: %v", err)
	}
}

// TestLeaveEndsLease: a member's waiting Lease returns once it leaves.
func TestLeaveEndsLease(t *testing.T) {
	l := New(Config{})
	join(t, l, "a")
	waiting := make(chan error, 1)
	go func() {
		_, err := l.Lease(context.Background(), "a")
		waiting <- err
	}()
	l.Leave("a")
	if err := <-waiting; !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("lease of a departed member: %v", err)
	}
}

// TestConcurrentExactlyOnce drives members that lease, sometimes release
// and otherwise complete, from several goroutines each, while items
// arrive: every item finishes exactly once and nobody sleeps through
// queued work.
func TestConcurrentExactlyOnce(t *testing.T) {
	const items = 400
	l := New(Config{Steal: true})
	members := []string{"a", "b", "c"}
	join(t, l, members...)
	var (
		mu       sync.Mutex
		finished = make(map[int64]int)
		wg       sync.WaitGroup
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, m := range members {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ls, err := l.Lease(ctx, m)
					if err != nil || ls == nil {
						return
					}
					if ls.ID%3 == 0 && ls.Attempt == 1 {
						if err := l.Release(m, ls.ID, ls.Epoch); err != nil {
							t.Errorf("release: %v", err)
						}
						continue
					}
					if _, err := l.Complete(m, ls.ID, ls.Epoch); err != nil {
						t.Errorf("complete: %v", err)
						continue
					}
					mu.Lock()
					finished[ls.ID]++
					mu.Unlock()
				}
			}()
		}
	}
	for i := 0; i < items; i++ {
		if _, err := l.Submit(uint64(i%7), nil, 2); err != nil {
			t.Fatal(err)
		}
	}
	l.Drain()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("members did not finish the queued work")
	}
	if len(finished) != items {
		t.Fatalf("%d items finished, want %d", len(finished), items)
	}
	for id, n := range finished {
		if n != 1 {
			t.Fatalf("item %d finished %d times", id, n)
		}
	}
}
