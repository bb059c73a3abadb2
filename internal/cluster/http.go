package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serve"
)

// maxBodyBytes bounds any request body the coordinator reads (models and
// cache uploads both grow with poles × ports²).
const maxBodyBytes = 256 << 20

// clientRequest mirrors serve.Request with the model kept as raw bytes:
// the ledger stores the admitted JSON verbatim, so every lease of the
// item ships byte-identical model input and a retry restarts pristine.
type clientRequest struct {
	Model       json.RawMessage   `json:"model"`
	Check       serve.CheckSpec   `json:"check"`
	Enforce     serve.EnforceSpec `json:"enforce"`
	DeadlineMS  int64             `json:"deadline_ms,omitempty"`
	MaxAttempts int               `json:"max_attempts,omitempty"`
}

// Handler returns the coordinator's HTTP interface. The client surface is
// wire-compatible with a single passivityd daemon; the worker surface
// carries the /cluster/v1/ pull protocol:
//
//	POST /v1/check            submit a check job, wait, return its Response
//	POST /v1/enforce          submit an enforce job
//	POST /cluster/v1/join     register a worker host
//	POST /cluster/v1/lease    long-poll for work (204 = none, 410 = re-join)
//	POST /cluster/v1/complete deliver a result (+ optional cache upload)
//	POST /cluster/v1/heartbeat renew liveness and leases
//	GET  /cluster/v1/cache    download a content-addressed cache blob
//	GET  /metrics             Prometheus text-format metrics
//	GET  /healthz             readiness (503 until a worker host has joined)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", func(w http.ResponseWriter, r *http.Request) {
		c.handleJob(w, r, serve.JobCheck)
	})
	mux.HandleFunc("/v1/enforce", func(w http.ResponseWriter, r *http.Request) {
		c.handleJob(w, r, serve.JobEnforce)
	})
	mux.HandleFunc("/cluster/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		resp, err := c.Join(&req)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/cluster/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		resp, err := c.Lease(r.Context(), &req)
		switch {
		case err == ErrUnknownWorker:
			// 410 tells the agent its registration is gone — re-join.
			serve.WriteJSON(w, http.StatusGone, serve.Response{Error: err.Error()})
		case err != nil:
			serve.WriteJSON(w, http.StatusServiceUnavailable, serve.Response{Error: err.Error()})
		case resp == nil:
			w.WriteHeader(http.StatusNoContent)
		default:
			serve.WriteJSON(w, http.StatusOK, resp)
		}
	})
	mux.HandleFunc("/cluster/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		serve.WriteJSON(w, http.StatusOK, c.Complete(&req))
	})
	mux.HandleFunc("/cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !serve.DecodePost(w, r, &req, maxBodyBytes) {
			return
		}
		if err := c.Heartbeat(&req); err != nil {
			serve.WriteJSON(w, http.StatusGone, serve.Response{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/cluster/v1/cache", func(w http.ResponseWriter, r *http.Request) {
		blob := c.CacheBlob(r.URL.Query().Get("addr"))
		if blob == nil {
			// Evicted or never stored: the agent runs the job cold.
			http.Error(w, "no such blob", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(blob)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.writePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case c.closed():
			http.Error(w, "closed", http.StatusServiceUnavailable)
		case c.led.Stats().Members == 0:
			// A coordinator with no worker hosts parks every job; an LB
			// should hold traffic until the first join.
			http.Error(w, "no workers joined", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	return mux
}

// handleJob admits one client job to the ledger and waits for its result.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request, kind serve.JobKind) {
	var req clientRequest
	if !serve.DecodePost(w, r, &req, maxBodyBytes) {
		return
	}
	if len(req.Model) == 0 {
		serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: "request carries no model"})
		return
	}
	// Fail malformed check specs here, before a worker burns a lease on
	// them (the same validation the single-host handler does).
	if _, err := req.Check.CheckOptions(); err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: err.Error()})
		return
	}
	it, err := c.Submit(kind, req.Model, req.Check, req.Enforce, req.DeadlineMS, req.MaxAttempts)
	switch {
	case err == ErrTooManyPending:
		// RFC 9110 allows either form of Retry-After; the coordinator
		// hints with an HTTP-date (the daemon hints with delta-seconds),
		// so clients must parse both — serve.ParseRetryAfter does.
		w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
		serve.WriteJSON(w, http.StatusTooManyRequests, serve.Response{Error: err.Error()})
		return
	case err != nil:
		serve.WriteJSON(w, http.StatusBadRequest, serve.Response{Error: err.Error()})
		return
	}
	// The coordinator always finishes an admitted item (lease expiry and
	// Close both fail it), so this wait cannot leak; a departed client
	// just never reads the buffered result.
	<-it.done
	serve.WriteJSON(w, it.status, it.resp)
}
