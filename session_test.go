package repro_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
)

func violatingLibrary(t *testing.T, n int, poles int) []*repro.Macromodel {
	t.Helper()
	models := make([]*repro.Macromodel, n)
	for i := range models {
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: poles, Seed: 900 + int64(i), PeakGain: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline, tolerating runtime bookkeeping with a bounded settle loop.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	var after int
	for i := 0; i < 200; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after settle", before, after)
}

// TestSessionEnforceBatchCancellation: cancelling mid-batch must surface
// context.Canceled, leave a coherent partial report (every slot either
// completed, carries its own partial report with the context error, or
// carries the context error alone), and leak no goroutines.
func TestSessionEnforceBatchCancellation(t *testing.T) {
	models := violatingLibrary(t, 8, 24)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events int64
	s := repro.NewSession(repro.WithProgress(func(ev repro.ProgressEvent) {
		// Cancel from inside the work, after the batch is demonstrably
		// running: the progress sink fires on the worker goroutines.
		if atomic.AddInt64(&events, 1) == 3 {
			cancel()
		}
	}))
	rep, err := s.EnforceBatch(ctx, models, repro.BatchEnforceOptions{
		Enforce: repro.EnforceOptions{
			Check:  repro.CheckOptions{Method: repro.CheckAdaptive},
			ClampD: true,
		},
		Workers: 2,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancellation must still return the partial report")
	}
	if rep.Models != len(models) || len(rep.Reports) != len(models) || len(rep.Errors) != len(models) {
		t.Fatalf("partial report lost its shape: %d models, %d reports, %d errors",
			rep.Models, len(rep.Reports), len(rep.Errors))
	}
	cancelled := 0
	for i := range models {
		switch {
		case rep.Errors[i] == nil:
			if rep.Reports[i] == nil || rep.Reports[i].Final == nil {
				t.Fatalf("model %d: no error but no complete report either", i)
			}
		case errors.Is(rep.Errors[i], context.Canceled):
			cancelled++
			// A claimed-then-cancelled model carries a partial report whose
			// iteration history matches its length; an unclaimed one has none.
			if r := rep.Reports[i]; r != nil && len(r.MaxSigmaHistory) != r.Iterations {
				t.Fatalf("model %d: incoherent partial report: %d history entries, %d iterations",
					i, len(r.MaxSigmaHistory), r.Iterations)
			}
		default:
			t.Fatalf("model %d: unexpected error %v", i, rep.Errors[i])
		}
	}
	if cancelled == 0 {
		t.Fatal("cancellation raced past the whole batch; no model was cancelled")
	}
	settleGoroutines(t, before)
}

// TestSessionCheckCancelledContext: a pre-cancelled context aborts before
// any work.
func TestSessionCheckCancelledContext(t *testing.T) {
	m := violatingLibrary(t, 1, 12)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := repro.NewSession()
	if _, err := s.Check(ctx, m, repro.CheckOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check: got %v, want context.Canceled", err)
	}
	if _, err := s.Enforce(ctx, m, repro.EnforceOptions{ClampD: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enforce: got %v, want context.Canceled", err)
	}
	if _, _, err := s.Fit(ctx, nil, repro.FitOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fit: got %v, want context.Canceled", err)
	}
}

// TestSessionCachePersistence: SaveCache/LoadCache carry the σ layers
// across sessions; a loaded-warm check returns the identical report.
func TestSessionCachePersistence(t *testing.T) {
	m := violatingLibrary(t, 1, 20)[0]
	opts := repro.CheckOptions{Method: repro.CheckAdaptive}
	dir := t.TempDir()

	s1 := repro.NewSession()
	want, err := s1.Check(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s1.CacheStats()
	if st1.Models != 1 || st1.SigmaEntries == 0 {
		t.Fatalf("first check left no cache state: %+v", st1)
	}
	if err := s1.SaveCache(dir); err != nil {
		t.Fatal(err)
	}

	s2 := repro.NewSession()
	if loaded, quarantined, err := s2.LoadCache(dir); err != nil || loaded != 1 || quarantined != 0 {
		t.Fatalf("LoadCache: loaded %d quarantined %d err %v, want 1/0/nil", loaded, quarantined, err)
	}
	st2 := s2.CacheStats()
	if st2.Models != 1 || st2.SigmaEntries != st1.SigmaEntries {
		t.Fatalf("reloaded cache state %+v, want 1 model and %d σ entries", st2, st1.SigmaEntries)
	}
	got, err := s2.Check(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-loaded check drifted: %+v vs %+v", got, want)
	}
	// Loading into a session that already holds the fingerprint is a no-op.
	if _, _, err := s2.LoadCache(dir); err != nil {
		t.Fatal(err)
	}
	if st := s2.CacheStats(); st.Models != 1 {
		t.Fatalf("duplicate load created %d caches", st.Models)
	}
	// An empty directory loads cleanly.
	if loaded, quarantined, err := repro.NewSession().LoadCache(t.TempDir()); err != nil || loaded+quarantined != 0 {
		t.Fatalf("empty dir: %d/%d/%v, want 0/0/nil", loaded, quarantined, err)
	}
}

// TestSessionCacheChecksum: a saved cache file carries a CRC-64 footer;
// a flipped byte anywhere fails the checksum deterministically, and
// LoadCache sets the file aside as .corrupt and loads the rest.
func TestSessionCacheChecksum(t *testing.T) {
	models := violatingLibrary(t, 2, 20)
	opts := repro.CheckOptions{Method: repro.CheckAdaptive}
	dir := t.TempDir()

	s1 := repro.NewSession()
	for _, m := range models {
		if _, err := s1.Check(context.Background(), m, opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.SaveCache(dir); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "cache-*"+repro.SessionCacheExt))
	if err != nil || len(paths) != 2 {
		t.Fatalf("saved files %v (err %v), want 2", paths, err)
	}

	// Corrupt one file mid-payload: the pristine sibling must still load.
	blob, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(paths[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := repro.CacheBlobFingerprint(blob); !errors.Is(err, repro.ErrCacheCorrupt) ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt file: %v, want ErrCacheCorrupt with checksum mismatch", err)
	}

	s3 := repro.NewSession()
	loaded, quarantined, err := s3.LoadCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || quarantined != 1 {
		t.Fatalf("quarantine load: loaded %d quarantined %d, want 1/1", loaded, quarantined)
	}
	if st := s3.CacheStats(); st.Models != 1 {
		t.Fatalf("corrupt load left %d caches, want 1 (the intact file)", st.Models)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still present: %v", err)
	}
	if _, err := os.Stat(paths[0] + repro.SessionCacheCorruptExt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// A repeat load no longer sees the quarantined file.
	if loaded, quarantined, err = repro.NewSession().LoadCache(dir); err != nil || loaded != 1 || quarantined != 0 {
		t.Fatalf("post-quarantine reload: %d/%d/%v, want 1/0/nil", loaded, quarantined, err)
	}

	// A truncated file (torn write) is quarantined too, not parsed.
	if err := os.WriteFile(paths[0], blob[:20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, quarantined, err = repro.NewSession().LoadCache(dir); err != nil || quarantined != 1 {
		t.Fatalf("truncated-file quarantine: %d/%v, want 1/nil", quarantined, err)
	}
}

// TestSessionCacheBudgetEviction: the session byte budget evicts whole
// model caches LRU-first.
func TestSessionCacheBudgetEviction(t *testing.T) {
	s := repro.NewSession(repro.WithCacheBudget(64 << 10))
	for _, m := range violatingLibrary(t, 6, 20) {
		if _, err := s.Check(context.Background(), m, repro.CheckOptions{Method: repro.CheckAdaptive}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 64 KiB budget: %+v", st)
	}
	if st.Bytes > 64<<10 {
		t.Fatalf("resident bytes %d exceed the budget", st.Bytes)
	}
	if st.Models >= 6 {
		t.Fatalf("all %d caches survived a budget sized for one", st.Models)
	}
}

// TestSessionResetAndDefaultSession: Reset empties the cache pool, and
// the shared default session behind the free functions is reachable for
// inspection and flushing.
func TestSessionResetAndDefaultSession(t *testing.T) {
	m := violatingLibrary(t, 1, 16)[0]
	s := repro.NewSession()
	if _, err := s.Check(context.Background(), m, repro.CheckOptions{Method: repro.CheckAdaptive}); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Models != 1 || st.Bytes == 0 {
		t.Fatalf("expected resident state before Reset: %+v", st)
	}
	s.Reset()
	if st := s.CacheStats(); st.Models != 0 || st.Bytes != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
	// A post-Reset check runs cold but still works and re-registers.
	if _, err := s.Check(context.Background(), m, repro.CheckOptions{Method: repro.CheckAdaptive}); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Models != 1 {
		t.Fatalf("post-Reset check did not repopulate: %+v", st)
	}

	ds := repro.DefaultSession()
	if ds == nil {
		t.Fatal("no default session")
	}
	if _, err := repro.CheckPassivity(m, repro.CheckOptions{Method: repro.CheckAdaptive}); err != nil {
		t.Fatal(err)
	}
	if st := ds.CacheStats(); st.Models == 0 {
		t.Fatal("free function did not populate the default session")
	}
	ds.Reset()
	if st := ds.CacheStats(); st.Models != 0 {
		t.Fatalf("default session Reset left state behind: %+v", st)
	}
}

// TestSessionDefaultsAndProgress: the per-call method and certify
// options apply under session-wide settings, and the progress sink sees
// check, iteration and certificate events with the single-model tag.
func TestSessionDefaultsAndProgress(t *testing.T) {
	m := violatingLibrary(t, 1, 10)[0]
	kinds := map[repro.ProgressKind]int{}
	models := map[int]bool{}
	s := repro.NewSession(
		repro.WithWorkers(1),
		repro.WithProgress(func(ev repro.ProgressEvent) {
			kinds[ev.Kind]++ // serialized delivery: no locking needed
			models[ev.Model] = true
		}),
	)
	chk := repro.CheckOptions{Method: repro.CheckAdaptive, Certify: true}
	rep, err := s.Check(context.Background(), m, chk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "adaptive" {
		t.Fatalf("per-call method ignored: %q", rep.Method)
	}
	enf, err := s.Enforce(context.Background(), m, repro.EnforceOptions{Check: chk, ClampD: true, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if enf.Certificate == nil || !enf.Certificate.Certified {
		t.Fatal("certified enforcement did not produce a certificate")
	}
	if kinds[repro.ProgressCheck] == 0 || kinds[repro.ProgressIteration] == 0 || kinds[repro.ProgressCertificateStage] == 0 {
		t.Fatalf("missing progress kinds: %+v", kinds)
	}
	if len(models) != 1 || !models[-1] {
		t.Fatalf("single-model events must be tagged -1, got %v", models)
	}
}

// warmCacheLibrary is BenchmarkSessionWarmCache's library: six 4-port,
// 60-pole violating models.
func warmCacheLibrary(t testing.TB) []*repro.Macromodel {
	t.Helper()
	models := make([]*repro.Macromodel, 6)
	for i := range models {
		m, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 4, Poles: 60, Seed: 500 + int64(i), PeakGain: 0.9,
		})
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}

// TestSessionWarmCheckReusesWorkspaces: a warm session check takes its σ
// scratch (transfer, SVD and refinement-grid buffers) from the pool the
// earlier checks returned it to, so it allocates only its per-check
// bookkeeping. A check that rebuilt its workspace would spend about 48 KB
// here.
func TestSessionWarmCheckReusesWorkspaces(t *testing.T) {
	models := warmCacheLibrary(t)
	s := repro.NewSession(repro.WithWorkers(1))
	ctx := context.Background()
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}
	sweep := func() {
		for _, m := range models {
			if _, err := s.Check(ctx, m, chk); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	sweep()
	const sweeps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	perCheck := (after.TotalAlloc - before.TotalAlloc) / (sweeps * uint64(len(models)))
	const bound = 32 << 10
	if perCheck > bound {
		t.Fatalf("warm check allocates %d B; want under %d B", perCheck, bound)
	}
}

// TestSessionConcurrentChecksMatchSequential: sessions on concurrent
// goroutines share the package's scratch pool, the way a service's
// workers do. Each goroutine's checks and enforcements of one library
// must equal a single-goroutine reference bit for bit.
func TestSessionConcurrentChecksMatchSequential(t *testing.T) {
	models := warmCacheLibrary(t)
	ctx := context.Background()
	chk := repro.CheckOptions{Method: repro.CheckAdaptive}
	enf := repro.EnforceOptions{Check: chk, ClampD: true}
	type result struct {
		checks   []*repro.PassivityReport
		enforces []*repro.EnforceReport
		models   []string
	}
	run := func() (result, error) {
		s := repro.NewSession(repro.WithWorkers(1))
		var r result
		for _, m := range models {
			rep, err := s.Check(ctx, m, chk)
			if err != nil {
				return r, err
			}
			r.checks = append(r.checks, rep)
			e := m.Clone()
			erep, err := s.Enforce(ctx, e, enf)
			if err != nil {
				return r, err
			}
			r.enforces = append(r.enforces, erep)
			blob, err := json.Marshal(e)
			if err != nil {
				return r, err
			}
			r.models = append(r.models, string(blob))
		}
		return r, nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	got := make([]result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run()
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(want, got[g]) {
			t.Fatalf("goroutine %d: reports or enforced models differ from the sequential run", g)
		}
	}
}
