package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	repro "repro"
)

// variant builds a model sharing base's pole set exactly (same pole
// fingerprint) with residues scaled by a real factor — the shape of a
// parameter sweep: near-identical models over a fixed pole library.
func variant(t testing.TB, base *repro.Macromodel, scale float64) *repro.Macromodel {
	t.Helper()
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var mj struct {
		R0       float64          `json:"r0"`
		Poles    [][2]float64     `json:"poles"`
		Residues [][][][2]float64 `json:"residues"`
		D        [][]float64      `json:"d"`
	}
	if err := json.Unmarshal(blob, &mj); err != nil {
		t.Fatal(err)
	}
	for _, rm := range mj.Residues {
		for i := range rm {
			for j := range rm[i] {
				rm[i][j][0] *= scale
				rm[i][j][1] *= scale
			}
		}
	}
	out, err := json.Marshal(mj)
	if err != nil {
		t.Fatal(err)
	}
	m := &repro.Macromodel{}
	if err := json.Unmarshal(out, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// library builds nFP×variants models: nFP distinct pole sets, each with
// `variants` residue-scaled copies (the 64-model / 8-fingerprint sweep of
// the acceptance criteria is library(t, 8, 8, …)).
func library(t testing.TB, nFP, variants, poles int) []*repro.Macromodel {
	t.Helper()
	var out []*repro.Macromodel
	for f := 0; f < nFP; f++ {
		base, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
			Ports: 2, Poles: poles, Seed: 9000 + int64(f), PeakGain: 0.6,
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < variants; v++ {
			out = append(out, variant(t, base, 1+0.002*float64(v)))
		}
	}
	return out
}

// fastCheck keeps test jobs in the millisecond range.
var fastCheck = repro.CheckOptions{Method: repro.CheckSweep, SweepPoints: 80}

func drainOrFail(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestAffinityRouting submits the acceptance workload — a 64-model
// library sharing 8 pole fingerprints — and asserts the dispatcher turns
// it into warm-cache placements: hit rate ≥ 80% (only the 8 first-seen
// fingerprints may miss), every fingerprint pinned to one worker, and the
// /metrics endpoint exporting the same ratio.
func TestAffinityRouting(t *testing.T) {
	s, err := New(Options{Workers: 4, QueueDepth: 128, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	models := library(t, 8, 8, 16)
	chans := make([]<-chan *Result, len(models))
	for i, m := range models {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: m, Check: fastCheck})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	workerOf := make(map[uint64]int)
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if w, seen := workerOf[res.Fingerprint]; seen && w != res.Worker {
			t.Errorf("fingerprint %016x served by workers %d and %d", res.Fingerprint, w, res.Worker)
		}
		workerOf[res.Fingerprint] = res.Worker
	}
	if len(workerOf) != 8 {
		t.Fatalf("saw %d fingerprints, want 8", len(workerOf))
	}
	if ratio := s.AffinityHitRatio(); ratio < 0.8 {
		t.Fatalf("affinity hit ratio %.3f < 0.8", ratio)
	}

	// The exported metrics agree.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	var ratio float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "passivityd_affinity_hit_ratio ") {
			fmt.Sscanf(line, "passivityd_affinity_hit_ratio %g", &ratio)
		}
	}
	if ratio < 0.8 {
		t.Fatalf("/metrics affinity hit ratio %g < 0.8\n%s", ratio, text)
	}
	for _, want := range []string{
		"passivityd_queue_depth",
		"passivityd_jobs_completed_total{kind=\"check\",status=\"ok\"} 64",
		"passivityd_stage_seconds_total{stage=\"check\"}",
		"passivityd_worker_cache_bytes{worker=\"0\"}",
		"passivityd_counter_declines_total",
		// Every series the benchmark harness (perfbench/service.go)
		// scrapes from a daemon.
		"passivityd_retries_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	drainOrFail(t, s)
}

// TestQueueFullRejects exercises admission control: with one gated worker
// and QueueDepth 3, the fourth job is rejected — ErrQueueFull from
// Submit, HTTP 429 with a Retry-After hint from the handler — and the
// gated jobs still finish once released.
func TestQueueFullRejects(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 3, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	models := library(t, 1, 4, 12)
	var chans []<-chan *Result
	for i := 0; i < 3; i++ {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[i], Check: fastCheck})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	if _, err := s.Submit(&Job{Kind: JobCheck, Model: models[3], Check: fastCheck}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: %v, want ErrQueueFull", err)
	}

	// The HTTP surface maps it to 429.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body, _ := json.Marshal(&Request{Model: models[3]})
	resp, err := http.Post(hs.URL+"/v1/check", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var jr Response
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil || jr.Error == "" {
		t.Errorf("429 body: %+v, %v", jr, err)
	}

	close(gate)
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("gated job %d failed: %v", i, res.Err)
		}
	}
	drainOrFail(t, s)
}

// TestDrainFinishesAcceptedJobs verifies the SIGTERM contract: a drain
// rejects new work, lets every accepted job finish and deliver its
// result, and persists the worker caches — from which a fresh server
// resumes affinity placement (warm restart).
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Workers: 2, QueueDepth: 16, DefaultDeadline: time.Minute, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	models := library(t, 2, 3, 12)
	var chans []<-chan *Result
	for i, m := range models {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: m, Check: fastCheck})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Admission must stop as soon as the drain begins.
	for {
		_, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck})
		if errors.Is(err, ErrDraining) {
			break
		}
		if err != nil {
			t.Fatalf("pre-drain submit: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every accepted job (including the extras admitted in the loop
	// above) got a result; the ones we kept channels for are all clean.
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("accepted job %d lost to drain: %v", i, res.Err)
			}
		default:
			t.Fatalf("accepted job %d has no result after drain", i)
		}
	}
	// Caches were persisted.
	saved, err := filepath.Glob(filepath.Join(dir, "worker-*", "cache-*"+repro.SessionCacheExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) == 0 {
		t.Fatal("drain saved no cache files")
	}

	// A fresh server reloads them and resumes affinity placement: the
	// very first submit of a known pole set is already a hit.
	s2, err := New(Options{Workers: 2, QueueDepth: 16, DefaultDeadline: time.Minute, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if quarantined, err := s2.LoadCaches(); err != nil || quarantined != 0 {
		t.Fatalf("reload: quarantined=%d err=%v", quarantined, err)
	}
	ch, err := s2.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || !res.AffinityHit {
		t.Fatalf("warm restart: err=%v affinityHit=%v, want nil/true", res.Err, res.AffinityHit)
	}
	drainOrFail(t, s2)

	// The original server stays drained.
	if _, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitDrainRaceFullQueue races a Submit storm against Drain on a
// full queue: every Submit resolves to acceptance, ErrQueueFull or
// ErrDraining (never a hang, never a lost result), every accepted job
// still delivers, and the drain completes.
func TestSubmitDrainRaceFullQueue(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 4, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.runHook = func(ctx context.Context, j *Job) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	models := library(t, 1, 5, 12)
	var accepted []<-chan *Result
	for i := 0; i < 4; i++ {
		ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[i], Check: fastCheck})
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		accepted = append(accepted, ch)
	}

	extra := make(chan []<-chan *Result, 1)
	go func() {
		var won []<-chan *Result
		for {
			ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[4], Check: fastCheck})
			switch {
			case err == nil:
				won = append(won, ch)
			case errors.Is(err, ErrQueueFull):
				// expected while the queue is full
			case errors.Is(err, ErrDraining):
				extra <- won
				return
			default:
				t.Errorf("unexpected submit error: %v", err)
				extra <- won
				return
			}
		}
	}()

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	time.Sleep(5 * time.Millisecond) // let the storm collide with the drain
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, ch := range append(accepted, <-extra...) {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("accepted job %d: %v", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted job %d never delivered", i)
		}
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after drain, want 0", d)
	}
}

// TestAbandonedResultChannel: a caller that walks away from its result
// channel costs nothing — the buffered delivery never blocks the worker,
// the admission slot is returned, and the server keeps serving.
func TestAbandonedResultChannel(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 2, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	models := library(t, 1, 3, 12)
	// Abandon two results — as many as the whole queue holds.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(&Job{Kind: JobCheck, Model: models[i], Check: fastCheck}); err != nil {
			t.Fatalf("abandoned submit %d: %v", i, err)
		}
	}
	// The slots come back without anyone reading those channels.
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d with abandoned callers", s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[2], Check: fastCheck})
	if err != nil {
		t.Fatalf("submit after abandonment: %v", err)
	}
	if res := <-ch; res.Err != nil {
		t.Fatal(res.Err)
	}
	drainOrFail(t, s)
}

// TestDrainZeroAccepted: draining an idle server completes immediately,
// saves nothing, and stays drained.
func TestDrainZeroAccepted(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueDepth: 4, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("idle drain took %v", d)
	}
	if err := s.Drain(ctx); err == nil {
		t.Fatal("second drain must report already draining")
	}
	models := library(t, 1, 1, 12)
	if _, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after idle drain: %v, want ErrDraining", err)
	}
}

// TestJobDeadline verifies per-job deadlines map to context cancellation:
// a wedged job is cut at its deadline and surfaces
// context.DeadlineExceeded (HTTP 504 on the wire).
func TestJobDeadline(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 4, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s.runHook = func(ctx context.Context, j *Job) error {
		<-ctx.Done() // simulate a job that only stops when cancelled
		return ctx.Err()
	}
	models := library(t, 1, 1, 12)
	ch, err := s.Submit(&Job{Kind: JobCheck, Model: models[0], Check: fastCheck, Deadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", res.Err)
	}

	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body, _ := json.Marshal(&Request{Model: models[0], DeadlineMS: 30})
	resp, err := http.Post(hs.URL+"/v1/check", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	drainOrFail(t, s)
}

// TestHTTPRejectsInvalidModel posts a model with an unstable pole: the
// decoder rejects it, so passivityd answers 400 and never checks a model
// its kernels would misread as passive.
func TestHTTPRejectsInvalidModel(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 4, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"model":{"poles":[[1000,0]],"residues":[[[[0.1,0]]]],"d":[[0.2]]},"check":{"method":"adaptive","certify":true}}`
	resp, err := http.Post(hs.URL+"/v1/check", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr Response
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(jr.Error, "invalid model") {
		t.Fatalf("unstable model: HTTP %d (%q), want 400 naming the invalid model", resp.StatusCode, jr.Error)
	}
	drainOrFail(t, s)
}

// TestHTTPEndpoints covers the wire protocol end to end: check and
// enforce round trips (the enforce response carries the enforced model,
// which must verify passive locally), malformed requests, and healthz.
func TestHTTPEndpoints(t *testing.T) {
	s, err := New(Options{Workers: 2, QueueDepth: 16, DefaultDeadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	post := func(endpoint string, req *Request) (*Response, int) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+endpoint, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr Response
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("%s: decode: %v", endpoint, err)
		}
		return &jr, resp.StatusCode
	}

	// A violating model: check finds it non-passive, enforce repairs it.
	bad, err := repro.SyntheticMacromodel(repro.SyntheticModelOptions{
		Ports: 2, Poles: 16, Seed: 42, PeakGain: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	jr, code := post("/v1/check", &Request{Model: bad, Check: CheckSpec{Method: "sweep", SweepPoints: 400}})
	if code != http.StatusOK {
		t.Fatalf("check: HTTP %d (%s)", code, jr.Error)
	}
	wantFP := fmt.Sprintf("%016x", repro.PoleFingerprint(bad))
	if jr.Fingerprint != wantFP {
		t.Errorf("fingerprint %s, want %s", jr.Fingerprint, wantFP)
	}
	if jr.Report == nil || jr.Report.Passive {
		t.Fatalf("check of violating model: %+v", jr.Report)
	}

	jr, code = post("/v1/enforce", &Request{
		Model: bad, Check: CheckSpec{Method: "sweep", SweepPoints: 400},
		Enforce: EnforceSpec{ClampD: true},
	})
	if code != http.StatusOK {
		t.Fatalf("enforce: HTTP %d (%s)", code, jr.Error)
	}
	if jr.Enforce == nil || jr.Report == nil || !jr.Report.Passive || jr.Model == nil {
		t.Fatalf("enforce response incomplete: enforce=%v report=%v model=%v", jr.Enforce, jr.Report, jr.Model)
	}
	// The returned model is genuinely enforced, not an echo.
	rep, err := repro.CheckPassivity(jr.Model, repro.CheckOptions{Method: repro.CheckSweep, SweepPoints: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passive {
		t.Fatalf("returned model fails a local re-check: σmax=%v", rep.MaxSigma)
	}

	// Protocol errors.
	if _, code := post("/v1/check", &Request{}); code != http.StatusBadRequest {
		t.Errorf("no model: HTTP %d, want 400", code)
	}
	if _, code := post("/v1/check", &Request{Model: bad, Check: CheckSpec{Method: "nope"}}); code != http.StatusBadRequest {
		t.Errorf("bad method: HTTP %d, want 400", code)
	}
	resp, err := http.Post(hs.URL+"/v1/check", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: HTTP %d, want 400", resp.StatusCode)
	}
	if resp, err = http.Get(hs.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
	drainOrFail(t, s)
}
