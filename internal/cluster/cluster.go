// Package cluster distributes Session.EnforceBatch-style workloads across a
// fleet of passivityd hosts: a coordinator owning a job ledger in front
// of worker agents that each embed the single-host serve.Server (worker
// pool, supervision, retry, cache persistence — everything PR 6/7 built
// stays in force inside each host).
//
// # Protocol
//
// The coordinator speaks two HTTP/JSON surfaces. The client surface is
// wire-compatible with a single passivityd daemon — POST /v1/check and
// /v1/enforce take the serve.Request schema and block until the job's
// result returns from whichever host ran it — so `passcheck -remote`
// pointed at a coordinator transparently fans a batch out across the
// fleet. The worker surface under /cluster/v1/ is pull-based:
//
//	POST /cluster/v1/join       register, advertise the warm-cache catalog
//	POST /cluster/v1/lease      long-poll for the next work item (204 = none)
//	POST /cluster/v1/complete   deliver a result (+ optional cache upload)
//	POST /cluster/v1/heartbeat  renew liveness and the in-flight leases
//	GET  /cluster/v1/cache      download a content-addressed cache blob
//
// # Ledger
//
// The coordinator runs the internal/ledger job ledger — the same
// scheduler each host's serve.Server runs over its workers — with lease
// and worker TTLs, stealing on, and a sweeper. Every admitted job is an
// item with three states: pending (queued on exactly one member, or
// waiting for a member to join), leased (held by a member under a
// deadline), done (result delivered, item dropped). A lease carries an
// epoch, incremented each time the item is leased; completions must
// present the current epoch, so a duplicate completion arriving after a
// lease expired and the item ran elsewhere is discarded — each item's
// result is delivered exactly once. Heartbeats renew a member's leases; a
// lease that outlives its TTL, or a member silent past the worker TTL,
// requeues the item with a fresh epoch onto a different host, or onto the
// same one when it is the only one. Requeued enforce jobs restart from the
// pristine admitted model bytes — the coordinator never ships a
// half-perturbed survivor.
//
// # Placement and stealing
//
// Placement is the ledger's pole-fingerprint affinity: the recorded
// placement of the fingerprint, then the least-loaded member whose
// catalog holds it warm — seeded by each member's advertised catalog at
// join and refreshed on every lease, heartbeat, completion and cache
// upload — then the least-loaded member. An idle member's lease steals
// from the tail of the most-loaded peer's queue (throughput beats
// affinity when a host would otherwise sit idle); the placement map
// follows the thief so queued siblings of the stolen fingerprint migrate
// together.
//
// # Warm-state transfer
//
// Warm state moves as checksummed Session cache blobs (the σ layers of
// one pole set; see repro.Session.ExportCache). After a completion the
// worker uploads the model's per-fingerprint cache blob; the coordinator
// verifies the CRC-64 footer and stores it content-addressed (a corrupt
// upload is quarantined — counted, never stored — and the job's result
// stands). When a job is placed or stolen onto a member whose catalog
// lacks the fingerprint, the lease carries the blob's address; the agent
// downloads and imports it ahead of the model, so a rebalanced or
// recovered host starts warm. The import path re-verifies the checksum
// end to end — a blob torn in flight costs one cold pole set, never a
// poisoned cache.
package cluster

import (
	"encoding/json"

	"repro/internal/serve"
)

// Wire types of the worker-facing /cluster/v1/ surface. The client-facing
// surface reuses serve.Request/serve.Response unchanged.

// JoinRequest registers a worker host with the coordinator.
type JoinRequest struct {
	// Name identifies the host (stable across reconnects; a re-join with
	// a live name requeues whatever the previous incarnation held).
	Name string `json:"name"`
	// Fingerprints advertises the host's warm evaluation-cache catalog as
	// %016x pole-set fingerprints (serve.Server.CacheFingerprints), so
	// affinity placement survives host restarts warm.
	Fingerprints []string `json:"fingerprints,omitempty"`
}

// JoinResponse returns the coordinator's timing contract.
type JoinResponse struct {
	// LeaseTTLMS is how long a lease lives without a heartbeat.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// PollWaitMS is the longest a lease long-poll is held before 204.
	PollWaitMS int64 `json:"poll_wait_ms"`
	// HeartbeatMS is the interval the worker should heartbeat at.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// LeaseRequest asks for the next work item.
type LeaseRequest struct {
	// Worker names the requesting host (from JoinRequest.Name).
	Worker string `json:"worker"`
	// Fingerprints re-advertises the host's current resident cache
	// catalog (%016x). Sessions evict under their byte budgets, so the
	// catalog the host joined with goes stale; refreshing it on every
	// lease keeps placement and warm-state shipping honest — a
	// fingerprint the host evicted is shipped again, not assumed warm.
	Fingerprints []string `json:"fingerprints,omitempty"`
}

// LeaseResponse hands one ledger item to a worker.
type LeaseResponse struct {
	// Item and Epoch identify the lease; completions must echo both.
	Item  int64 `json:"item"`
	Epoch int   `json:"epoch"`
	// Kind is "check" or "enforce".
	Kind string `json:"kind"`
	// Model is the admitted macromodel JSON, byte-identical on every
	// lease of the item — a retry always restarts pristine.
	Model json.RawMessage `json:"model"`
	// Check and Enforce carry the job's option specs.
	Check   serve.CheckSpec   `json:"check"`
	Enforce serve.EnforceSpec `json:"enforce"`
	// DeadlineMS bounds the job's running wall-clock host-side (0 = the
	// host's default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Fingerprint is the model's pole-set fingerprint, %016x.
	Fingerprint string `json:"fingerprint"`
	// CacheAddr, when set, is the content address of a warm cache blob
	// for Fingerprint that this host does not hold — download it from
	// GET /cluster/v1/cache?addr= and import it before running the model.
	CacheAddr string `json:"cache_addr,omitempty"`
	// WantCache asks the host to upload the fingerprint's cache blob with
	// its completion: the coordinator had no record of this host holding
	// the fingerprint warm, so the store wants a copy to ship to future
	// placements. Hosts the coordinator already knows warm skip the
	// upload — steady-state sweeps do not re-serialize a cache per job.
	WantCache bool `json:"want_cache,omitempty"`
	// Stolen marks a lease served from another member's queue.
	Stolen bool `json:"stolen,omitempty"`
}

// HeartbeatRequest renews a worker's liveness and its in-flight leases.
type HeartbeatRequest struct {
	// Worker names the host.
	Worker string `json:"worker"`
	// Items lists the ledger items the host is still running.
	Items []int64 `json:"items,omitempty"`
	// Fingerprints re-advertises the host's resident cache catalog, like
	// LeaseRequest.Fingerprints.
	Fingerprints []string `json:"fingerprints,omitempty"`
}

// CompleteRequest delivers one item's result, optionally with the
// model's per-fingerprint cache blob as the warm-state upload.
type CompleteRequest struct {
	// Worker names the host; Item and Epoch echo the lease.
	Worker string `json:"worker"`
	// Item is the ledger item id.
	Item int64 `json:"item"`
	// Epoch is the lease epoch the result belongs to.
	Epoch int `json:"epoch"`
	// Status is the HTTP status the result travels under end to end
	// (serve.ResponseStatus's mapping).
	Status int `json:"status"`
	// Response is the job's wire result.
	Response serve.Response `json:"response"`
	// Cache, when present, is the checksummed cache blob for the
	// model's fingerprint (base64 over JSON), uploaded after completion.
	Cache []byte `json:"cache,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted is false when the completion was discarded (stale epoch,
	// unknown item) — the authoritative result came or comes from
	// elsewhere; the worker must not retry.
	Accepted bool `json:"accepted"`
	// Reason explains a discard.
	Reason string `json:"reason,omitempty"`
}
