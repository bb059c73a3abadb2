package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	repro "repro"
)

// metrics aggregates the server's operational counters. Everything is
// guarded by one mutex — update rates are per job and per progress event,
// far below contention territory — and exported in Prometheus text format
// by writePrometheus.
type metrics struct {
	mu sync.Mutex

	acceptedTotal  int64
	rejectedTotal  map[string]int64 // by reason: queue_full, draining
	affinityHits   int64
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

func (m *metrics) accepted(affinityHit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acceptedTotal++
	if affinityHit {
		m.affinityHits++
	} else {
		m.affinityMisses++
	}
}

func (m *metrics) rejected(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectedTotal[reason]++
}

func (m *metrics) panicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panicsTotal++
}

func (m *metrics) workerRestarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.restartsTotal++
}

func (m *metrics) workerRetired() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retiredTotal++
}

func (m *metrics) retried() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retriesTotal++
}

func (m *metrics) requeued() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requeuedTotal++
}

func (m *metrics) quarantined(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.quarantinedTotal += int64(n)
}

// kindLabel names a job kind in metric labels.
func kindLabel(k JobKind) string {
	if k == JobEnforce {
		return "enforce"
	}
	return "check"
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
	k := kindLabel(kind)
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

// AffinityHitRatio reports hits/(hits+misses) over all accepted jobs
// (0 when none were accepted yet).
func (s *Server) AffinityHitRatio() float64 {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	total := s.met.affinityHits + s.met.affinityMisses
	if total == 0 {
		return 0
	}
	return float64(s.met.affinityHits) / float64(total)
}

// sortedKeys returns the map keys in stable order so the /metrics output
// is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writePrometheus renders the server state in the Prometheus text
// exposition format (hand-rolled — the module takes no dependencies).
func (s *Server) writePrometheus(w io.Writer) {
	queued := s.QueueDepth()
	m := s.met
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP passivityd_workers Worker pool size.\n# TYPE passivityd_workers gauge\npassivityd_workers %d\n", len(s.workers))
	fmt.Fprintf(w, "# HELP passivityd_queue_depth Accepted-but-unfinished jobs.\n# TYPE passivityd_queue_depth gauge\npassivityd_queue_depth %d\n", queued)
	fmt.Fprintf(w, "# HELP passivityd_jobs_accepted_total Jobs admitted to the queue.\n# TYPE passivityd_jobs_accepted_total counter\npassivityd_jobs_accepted_total %d\n", m.acceptedTotal)

	fmt.Fprintf(w, "# HELP passivityd_jobs_rejected_total Jobs rejected at admission.\n# TYPE passivityd_jobs_rejected_total counter\n")
	for _, reason := range sortedKeys(m.rejectedTotal) {
		fmt.Fprintf(w, "passivityd_jobs_rejected_total{reason=%q} %d\n", reason, m.rejectedTotal[reason])
	}

	fmt.Fprintf(w, "# HELP passivityd_affinity_hits_total Jobs placed on the worker already holding their pole-set fingerprint.\n# TYPE passivityd_affinity_hits_total counter\npassivityd_affinity_hits_total %d\n", m.affinityHits)
	fmt.Fprintf(w, "# HELP passivityd_affinity_misses_total Jobs placed by the least-loaded fallback.\n# TYPE passivityd_affinity_misses_total counter\npassivityd_affinity_misses_total %d\n", m.affinityMisses)
	ratio := 0.0
	if t := m.affinityHits + m.affinityMisses; t > 0 {
		ratio = float64(m.affinityHits) / float64(t)
	}
	fmt.Fprintf(w, "# HELP passivityd_affinity_hit_ratio Affinity hits over accepted jobs.\n# TYPE passivityd_affinity_hit_ratio gauge\npassivityd_affinity_hit_ratio %g\n", ratio)

	fmt.Fprintf(w, "# HELP passivityd_panics_total Worker panics recovered by job supervision.\n# TYPE passivityd_panics_total counter\npassivityd_panics_total %d\n", m.panicsTotal)
	fmt.Fprintf(w, "# HELP passivityd_worker_restarts_total Worker Sessions rebuilt fresh after a panic.\n# TYPE passivityd_worker_restarts_total counter\npassivityd_worker_restarts_total %d\n", m.restartsTotal)
	fmt.Fprintf(w, "# HELP passivityd_workers_retired_total Workers retired for exhausting their restart budget.\n# TYPE passivityd_workers_retired_total counter\npassivityd_workers_retired_total %d\n", m.retiredTotal)
	fmt.Fprintf(w, "# HELP passivityd_retries_total Job attempts re-run after a retryable failure.\n# TYPE passivityd_retries_total counter\npassivityd_retries_total %d\n", m.retriesTotal)
	fmt.Fprintf(w, "# HELP passivityd_requeued_total Jobs moved onto a different worker's queue.\n# TYPE passivityd_requeued_total counter\npassivityd_requeued_total %d\n", m.requeuedTotal)
	fmt.Fprintf(w, "# HELP passivityd_quarantined_caches_total Corrupt cache files quarantined at load.\n# TYPE passivityd_quarantined_caches_total counter\npassivityd_quarantined_caches_total %d\n", m.quarantinedTotal)

	fmt.Fprintf(w, "# HELP passivityd_jobs_completed_total Finished jobs by kind and status.\n# TYPE passivityd_jobs_completed_total counter\n")
	for _, k := range sortedKeys(m.completedTotal) {
		kind, status := k, ""
		for i := range k {
			if k[i] == '/' {
				kind, status = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "passivityd_jobs_completed_total{kind=%q,status=%q} %d\n", kind, status, m.completedTotal[k])
	}

	fmt.Fprintf(w, "# HELP passivityd_queue_wait_seconds_total Cumulative time jobs spent queued.\n# TYPE passivityd_queue_wait_seconds_total counter\npassivityd_queue_wait_seconds_total %g\n", m.queueWaitSec)
	fmt.Fprintf(w, "# HELP passivityd_queue_wait_count Jobs the wait total covers.\n# TYPE passivityd_queue_wait_count counter\npassivityd_queue_wait_count %d\n", m.queueWaitCount)

	fmt.Fprintf(w, "# HELP passivityd_service_seconds_total Cumulative worker time by job kind.\n# TYPE passivityd_service_seconds_total counter\n")
	for _, k := range sortedKeys(m.serviceSec) {
		fmt.Fprintf(w, "passivityd_service_seconds_total{kind=%q} %g\n", k, m.serviceSec[k])
	}
	fmt.Fprintf(w, "# HELP passivityd_service_count Jobs the service totals cover, by kind.\n# TYPE passivityd_service_count counter\n")
	for _, k := range sortedKeys(m.serviceCount) {
		fmt.Fprintf(w, "passivityd_service_count{kind=%q} %d\n", k, m.serviceCount[k])
	}

	fmt.Fprintf(w, "# HELP passivityd_stage_seconds_total Wall-clock charged to each progress stage.\n# TYPE passivityd_stage_seconds_total counter\n")
	for _, k := range sortedKeys(m.stageSec) {
		fmt.Fprintf(w, "passivityd_stage_seconds_total{stage=%q} %g\n", k, m.stageSec[k])
	}
	fmt.Fprintf(w, "# HELP passivityd_stage_events_total Progress events per stage.\n# TYPE passivityd_stage_events_total counter\n")
	for _, k := range sortedKeys(m.stageEvents) {
		fmt.Fprintf(w, "passivityd_stage_events_total{stage=%q} %d\n", k, m.stageEvents[k])
	}
	fmt.Fprintf(w, "# HELP passivityd_sigma_samples_total Sigma evaluations reported by progress events.\n# TYPE passivityd_sigma_samples_total counter\npassivityd_sigma_samples_total %d\n", m.sigmaTotal)
	fmt.Fprintf(w, "# HELP passivityd_counter_nodes_total Contour-quadrature determinant evaluations reported by certificate-stage events.\n# TYPE passivityd_counter_nodes_total counter\npassivityd_counter_nodes_total %d\n", m.nodesTotal)
	fmt.Fprintf(w, "# HELP passivityd_counter_declines_total Intervals certificate stages refused at their dimension gates.\n# TYPE passivityd_counter_declines_total counter\npassivityd_counter_declines_total %d\n", m.declinesTotal)

	fmt.Fprintf(w, "# HELP passivityd_worker_cache_bytes Estimated resident evaluation-cache bytes per worker Session.\n# TYPE passivityd_worker_cache_bytes gauge\n")
	workers := make([]int, 0, len(m.cache))
	for id := range m.cache {
		workers = append(workers, id)
	}
	sort.Ints(workers)
	for _, id := range workers {
		fmt.Fprintf(w, "passivityd_worker_cache_bytes{worker=\"%d\"} %d\n", id, m.cache[id].Bytes)
	}
	fmt.Fprintf(w, "# HELP passivityd_worker_cache_models Resident pole-set caches per worker Session.\n# TYPE passivityd_worker_cache_models gauge\n")
	for _, id := range workers {
		fmt.Fprintf(w, "passivityd_worker_cache_models{worker=\"%d\"} %d\n", id, m.cache[id].Models)
	}
}
