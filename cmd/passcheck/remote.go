package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	repro "repro"
	"repro/internal/serve"
)

// remoteRun drives a passivityd daemon instead of the in-process engine:
// every model is POSTed to /v1/check or /v1/enforce and the daemon's
// pole-fingerprint affinity scheduler places it on the worker whose
// caches are warm for its pole set.
//
// The client is built for flaky daemons: connection errors, 5xx statuses
// and 429 queue-full rejections are retried with bounded exponential
// backoff plus jitter (honoring the daemon's Retry-After hint), so a
// -batch sweep against a restarting or briefly-full daemon completes
// instead of scattering FAILED rows.
type remoteRun struct {
	ctx  context.Context
	base string
	cli  *http.Client
	// retries is the max attempts per request (>= 1); waitBase is the
	// first backoff step, doubled per attempt and capped at waitMax.
	retries  int
	waitBase time.Duration
	waitMax  time.Duration
}

// httpError is a non-2xx daemon response: the status, the daemon's error
// string (or a bounded raw-body snippet when the body did not decode as
// a Response), and the parsed Retry-After hint for the backoff path.
type httpError struct {
	endpoint   string
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.endpoint, e.status, e.msg)
}

// retryableRemote classifies a failed request: queue pressure (429) and
// server-side trouble (5xx, including the 503 of a draining daemon) are
// worth retrying, as is anything below HTTP (connection refused/reset,
// truncated response body). Client-side 4xx mistakes are final.
func retryableRemote(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status == http.StatusTooManyRequests || he.status >= 500
	}
	return true // connection-level or torn-response failure
}

// backoff is the jittered wait before retry number attempt (1-based),
// honoring the daemon's Retry-After hint when err carries one.
func (r *remoteRun) backoff(attempt int, err error) time.Duration {
	var hint time.Duration
	var he *httpError
	if errors.As(err, &he) {
		hint = he.retryAfter
	}
	return serve.Backoff(attempt, r.waitBase, r.waitMax, hint)
}

// post submits one job, retrying retryable failures with backoff until
// r.retries attempts are spent or the run context is cancelled.
func (r *remoteRun) post(endpoint string, req *serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		resp, err := r.postOnce(endpoint, body)
		if err == nil {
			return resp, nil
		}
		if r.ctx.Err() != nil || attempt >= r.retries || !retryableRemote(err) {
			return nil, err
		}
		select {
		case <-time.After(r.backoff(attempt, err)):
		case <-r.ctx.Done():
			return nil, err
		}
	}
}

// postOnce performs a single request/response round trip.
func (r *remoteRun) postOnce(endpoint string, body []byte) (*serve.Response, error) {
	hreq, err := http.NewRequestWithContext(r.ctx, http.MethodPost, r.base+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := r.cli.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode < 200 || hresp.StatusCode > 299 {
		// Error bodies are small; bound the read so a broken daemon
		// cannot stream garbage at a failing client. Decode the daemon's
		// error when the body is a Response, but never let a decode
		// failure mask the status — surface it with a raw snippet.
		raw, _ := io.ReadAll(io.LimitReader(hresp.Body, 8<<10))
		he := &httpError{
			endpoint:   endpoint,
			status:     hresp.StatusCode,
			retryAfter: serve.ParseRetryAfter(hresp.Header.Get("Retry-After")),
		}
		var resp serve.Response
		if err := json.Unmarshal(raw, &resp); err == nil && resp.Error != "" {
			he.msg = resp.Error
		} else {
			snippet := raw
			if len(snippet) > 256 {
				snippet = snippet[:256]
			}
			he.msg = fmt.Sprintf("undecodable body %q", snippet)
		}
		return nil, he
	}
	var resp serve.Response
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 256<<20)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding %s response (HTTP %d): %v", endpoint, hresp.StatusCode, err)
	}
	return &resp, nil
}

// jobRequest assembles the wire request for one model.
func remoteRequest(m *repro.Macromodel, method string, sweep int, certify bool, deadline time.Duration) *serve.Request {
	return &serve.Request{
		Model:      m,
		Check:      serve.CheckSpec{Method: method, SweepPoints: sweep, Certify: certify},
		Enforce:    serve.EnforceSpec{ClampD: true, Certify: certify},
		DeadlineMS: deadline.Milliseconds(),
	}
}

// attemptsNote renders the retry tail of a result line ("" when the
// daemon ran the job once).
func attemptsNote(resp *serve.Response) string {
	if resp.Attempts > 1 {
		return fmt.Sprintf(" attempts=%d", resp.Attempts)
	}
	return ""
}

// runRemote is the -remote entry point: single -model jobs go through one
// POST; -batch fans the library out with a few concurrent submitters so
// the daemon's queue (and its affinity scheduler) stays busy.
func runRemote(ctx context.Context, base, modelPath, batch string, method string, sweep int,
	enforce, certify bool, deadline time.Duration, save, saveDir string,
	retries int, retryWait time.Duration) {
	if retries < 1 {
		retries = 1
	}
	if retryWait <= 0 {
		retryWait = 250 * time.Millisecond
	}
	r := &remoteRun{
		ctx: ctx, base: base, cli: &http.Client{},
		retries: retries, waitBase: retryWait, waitMax: 5 * time.Second,
	}
	endpoint := "/v1/check"
	if enforce {
		endpoint = "/v1/enforce"
	}

	if batch == "" {
		model, err := repro.LoadMacromodel(modelPath)
		if err != nil {
			fail(2, "loading model: %v", err)
		}
		resp, err := r.post(endpoint, remoteRequest(model, method, sweep, certify, deadline))
		if err != nil {
			if errors.Is(ctx.Err(), context.Canceled) {
				fail(130, "interrupted")
			}
			fail(2, "remote %s: %v", endpoint, err)
		}
		fmt.Printf("remote: worker %d, affinity hit %v, fingerprint %s, wait %.1f ms, service %.1f ms%s\n",
			resp.Worker, resp.AffinityHit, resp.Fingerprint, resp.QueueWaitMS, resp.ServiceMS, attemptsNote(resp))
		if resp.Enforce != nil {
			fmt.Printf("enforced in %d iterations (D clamped: %v)\n", resp.Enforce.Iterations, resp.Enforce.DClamped)
		}
		printReport(resp.Report)
		if save != "" && resp.Model != nil {
			if err := resp.Model.SaveFile(save); err != nil {
				fail(2, "saving: %v", err)
			}
			fmt.Printf("saved enforced model to %s\n", save)
		}
		if !resp.Report.Passive {
			os.Exit(1)
		}
		return
	}

	paths, err := filepath.Glob(batch)
	if err != nil {
		fail(2, "bad -batch pattern %q: %v", batch, err)
	}
	if len(paths) == 0 {
		fail(2, "-batch %q matched no files", batch)
	}
	sort.Strings(paths)
	fmt.Printf("remote batch: %d models via %s%s\n", len(paths), base, endpoint)
	if saveDir != "" {
		// Once, up front — not per surviving row deep inside the loop.
		if err := os.MkdirAll(saveDir, 0o755); err != nil {
			fail(2, "creating %s: %v", saveDir, err)
		}
	}

	resps := make([]*serve.Response, len(paths))
	errs := make([]error, len(paths))
	submitters := 8
	if len(paths) < submitters {
		submitters = len(paths)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				model, err := repro.LoadMacromodel(paths[i])
				if err != nil {
					errs[i] = err
					continue
				}
				resps[i], errs[i] = r.post(endpoint, remoteRequest(model, method, sweep, certify, deadline))
			}
		}()
	}
	for i := range paths {
		select {
		case next <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(next)
	wg.Wait()

	allPassive := true
	hits, failed, saveErrs := 0, 0, 0
	var waitMS, serviceMS float64
	for i, p := range paths {
		switch {
		case errs[i] != nil:
			fmt.Printf("  %s: FAILED: %v\n", p, errs[i])
			allPassive = false
			failed++
		case resps[i] == nil: // never dispatched: the run was interrupted
			fmt.Printf("  %s: CANCELLED\n", p)
			allPassive = false
			failed++
		default:
			rp := resps[i]
			if rp.AffinityHit {
				hits++
			}
			waitMS += rp.QueueWaitMS
			serviceMS += rp.ServiceMS
			iter := ""
			if rp.Enforce != nil {
				iter = fmt.Sprintf(" iterations=%d", rp.Enforce.Iterations)
			}
			saveNote := ""
			if saveDir != "" && rp.Model != nil {
				// A failed save is that row's problem, not the batch's:
				// report it in place and keep emitting the remaining
				// results and the summary.
				if err := rp.Model.SaveFile(filepath.Join(saveDir, filepath.Base(p))); err != nil {
					saveNote = fmt.Sprintf(" SAVE FAILED: %v", err)
					saveErrs++
				}
			}
			fmt.Printf("  %s: passive=%v σmax=%.6f%s%s [worker %d, hit=%v]%s\n",
				p, rp.Report.Passive, rp.Report.MaxSigma, iter, attemptsNote(rp), rp.Worker, rp.AffinityHit, saveNote)
			if !rp.Report.Passive {
				allPassive = false
			}
		}
	}
	done := len(paths) - failed
	if done > 0 {
		fmt.Printf("remote summary: %d/%d ok, affinity hits %d/%d (%.0f%%), mean wait %.1f ms, mean service %.1f ms\n",
			done, len(paths), hits, done, 100*float64(hits)/float64(done), waitMS/float64(done), serviceMS/float64(done))
	}
	if ctx.Err() != nil {
		fail(130, "interrupted — partial results above")
	}
	if saveErrs > 0 {
		fail(2, "%d enforced model(s) could not be saved to %s", saveErrs, saveDir)
	}
	if !allPassive {
		os.Exit(1)
	}
}
