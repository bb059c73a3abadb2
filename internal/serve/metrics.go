package serve

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	repro "repro"
	"repro/internal/prom"
)

// metrics aggregates the server's operational counters. Everything is
// guarded by one mutex — update rates are per job and per progress event,
// far below contention territory — and exported in Prometheus text format
// by writePrometheus.
type metrics struct {
	mu sync.Mutex

	acceptedTotal  int64
	rejectedTotal  map[string]int64 // by reason: queue_full, draining
	affinityHits   int64            // first attempts that found their worker warm
	affinityMisses int64

	// completedTotal counts finished jobs by "kind/status" (status: ok,
	// error, deadline, cancelled).
	completedTotal map[string]int64

	// Fault-tolerance counters: recovered worker panics, Session rebuilds
	// after panics, workers retired for exhausting their restart budget,
	// attempt re-runs, jobs moved to another worker's queue, and cache
	// files quarantined as corrupt at load.
	panicsTotal      int64
	restartsTotal    int64
	retiredTotal     int64
	retriesTotal     int64
	requeuedTotal    int64
	quarantinedTotal int64

	queueWaitSec   float64
	queueWaitCount int64
	serviceSec     map[string]float64 // by job kind
	serviceCount   map[string]int64

	// stageSec/stageEvents charge wall-clock between progress events to
	// the emitting stage (check, iteration, certificate-stage) — the
	// per-stage latency view of the PR 5 progress stream.
	stageSec    map[string]float64
	stageEvents map[string]int64
	sigmaTotal  int64
	// nodesTotal counts contour-quadrature determinant evaluations;
	// declinesTotal counts the intervals certificate stages refused at
	// their dimension gates.
	nodesTotal    int64
	declinesTotal int64

	// cache holds the latest per-worker Session cache snapshot.
	cache map[int]repro.SessionCacheStats
}

func newMetrics() *metrics {
	return &metrics{
		rejectedTotal:  make(map[string]int64),
		completedTotal: make(map[string]int64),
		serviceSec:     make(map[string]float64),
		serviceCount:   make(map[string]int64),
		stageSec:       make(map[string]float64),
		stageEvents:    make(map[string]int64),
		cache:          make(map[int]repro.SessionCacheStats),
	}
}

func (m *metrics) accepted()         { m.add(&m.acceptedTotal, 1) }
func (m *metrics) panicked()         { m.add(&m.panicsTotal, 1) }
func (m *metrics) workerRestarted()  { m.add(&m.restartsTotal, 1) }
func (m *metrics) workerRetired()    { m.add(&m.retiredTotal, 1) }
func (m *metrics) retried()          { m.add(&m.retriesTotal, 1) }
func (m *metrics) requeued()         { m.add(&m.requeuedTotal, 1) }
func (m *metrics) quarantined(n int) { m.add(&m.quarantinedTotal, int64(n)) }

// placed counts a job's first attempt as an affinity hit or miss.
func (m *metrics) placed(affinityHit bool) {
	if affinityHit {
		m.add(&m.affinityHits, 1)
	} else {
		m.add(&m.affinityMisses, 1)
	}
}

func (m *metrics) add(c *int64, n int64) {
	m.mu.Lock()
	*c += n
	m.mu.Unlock()
}

func (m *metrics) rejected(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectedTotal[reason]++
}

func (m *metrics) finished(kind JobKind, res *Result) {
	status := "ok"
	switch {
	case errors.Is(res.Err, context.DeadlineExceeded):
		status = "deadline"
	case errors.Is(res.Err, context.Canceled):
		status = "cancelled"
	case res.Err != nil:
		status = "error"
	}
	k := kind.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completedTotal[k+"/"+status]++
	m.queueWaitSec += res.QueueWait.Seconds()
	m.queueWaitCount++
	m.serviceSec[k] += res.Service.Seconds()
	m.serviceCount[k]++
}

func (m *metrics) stage(stage string, d time.Duration, samples, nodes, declined int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stageSec[stage] += d.Seconds()
	m.stageEvents[stage]++
	m.sigmaTotal += int64(samples)
	m.nodesTotal += int64(nodes)
	m.declinesTotal += int64(declined)
}

func (m *metrics) cacheStats(worker int, st repro.SessionCacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache[worker] = st
}

// AffinityHitRatio reports hits/(hits+misses) over all started jobs
// (0 when none started yet).
func (s *Server) AffinityHitRatio() float64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	total := s.met.affinityHits + s.met.affinityMisses
	if total == 0 {
		return 0
	}
	return float64(s.met.affinityHits) / float64(total)
}

// writePrometheus renders the server state in the Prometheus text
// exposition format.
func (s *Server) writePrometheus(w io.Writer) {
	queued := s.QueueDepth()
	m := s.met
	m.mu.Lock()
	defer m.mu.Unlock()
	p := prom.New(w)

	p.Metric("passivityd_workers", "gauge", "Worker pool size.", len(s.workers))
	p.Metric("passivityd_queue_depth", "gauge", "Accepted-but-unfinished jobs.", queued)
	p.Metric("passivityd_jobs_accepted_total", "counter", "Jobs admitted to the queue.", m.acceptedTotal)
	prom.Labelled(p, "passivityd_jobs_rejected_total", "counter", "Jobs rejected at admission.", "reason", m.rejectedTotal)

	p.Metric("passivityd_affinity_hits_total", "counter", "Jobs placed on the worker already holding their pole-set fingerprint.", m.affinityHits)
	p.Metric("passivityd_affinity_misses_total", "counter", "Jobs placed by the least-loaded fallback.", m.affinityMisses)
	ratio := 0.0
	if t := m.affinityHits + m.affinityMisses; t > 0 {
		ratio = float64(m.affinityHits) / float64(t)
	}
	p.Metric("passivityd_affinity_hit_ratio", "gauge", "Affinity hits over accepted jobs.", ratio)

	p.Metric("passivityd_panics_total", "counter", "Worker panics recovered by job supervision.", m.panicsTotal)
	p.Metric("passivityd_worker_restarts_total", "counter", "Worker Sessions rebuilt fresh after a panic.", m.restartsTotal)
	p.Metric("passivityd_workers_retired_total", "counter", "Workers retired for exhausting their restart budget.", m.retiredTotal)
	p.Metric("passivityd_retries_total", "counter", "Job attempts re-run after a retryable failure.", m.retriesTotal)
	p.Metric("passivityd_requeued_total", "counter", "Jobs moved onto a different worker's queue.", m.requeuedTotal)
	p.Metric("passivityd_quarantined_caches_total", "counter", "Corrupt cache files quarantined at load.", m.quarantinedTotal)

	p.KindStatus("passivityd_jobs_completed_total", "Finished jobs by kind and status.", m.completedTotal)

	p.Metric("passivityd_queue_wait_seconds_total", "counter", "Cumulative time jobs spent queued.", m.queueWaitSec)
	p.Metric("passivityd_queue_wait_count", "counter", "Jobs the wait total covers.", m.queueWaitCount)
	prom.Labelled(p, "passivityd_service_seconds_total", "counter", "Cumulative worker time by job kind.", "kind", m.serviceSec)
	prom.Labelled(p, "passivityd_service_count", "counter", "Jobs the service totals cover, by kind.", "kind", m.serviceCount)

	prom.Labelled(p, "passivityd_stage_seconds_total", "counter", "Wall-clock charged to each progress stage.", "stage", m.stageSec)
	prom.Labelled(p, "passivityd_stage_events_total", "counter", "Progress events per stage.", "stage", m.stageEvents)
	p.Metric("passivityd_sigma_samples_total", "counter", "Sigma evaluations reported by progress events.", m.sigmaTotal)
	p.Metric("passivityd_counter_nodes_total", "counter", "Contour-quadrature determinant evaluations reported by certificate-stage events.", m.nodesTotal)
	p.Metric("passivityd_counter_declines_total", "counter", "Intervals certificate stages refused at their dimension gates.", m.declinesTotal)

	bytes := make(map[int]int64, len(m.cache))
	models := make(map[int]int, len(m.cache))
	for id, st := range m.cache {
		bytes[id], models[id] = st.Bytes, st.Models
	}
	prom.Labelled(p, "passivityd_worker_cache_bytes", "gauge", "Estimated resident evaluation-cache bytes per worker Session.", "worker", bytes)
	prom.Labelled(p, "passivityd_worker_cache_models", "gauge", "Resident pole-set caches per worker Session.", "worker", models)
}
