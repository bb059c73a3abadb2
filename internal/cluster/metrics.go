package cluster

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/prom"
)

// clusterMetrics aggregates the coordinator's operational counters,
// exported in Prometheus text format on the coordinator's /metrics.
// The ledger's gauges and its steal, requeue and leave counters are read
// from the ledger at scrape time; only the coordinator's own counters
// live here.
type clusterMetrics struct {
	mu sync.Mutex

	submittedTotal int64
	rejectedTotal  int64
	joinsTotal     int64

	leasesTotal     int64
	warmLeasesTotal int64 // leases whose member already held the fingerprint
	duplicatesTotal int64

	completedTotal map[string]int64 // by "kind/status code"
	failedTotal    int64

	quarantinedUploads int64
	cacheShipsTotal    int64 // leases that carried a CacheAddr
	cacheBytesTotal    int64 // bytes moved through the store, both directions
}

func newClusterMetrics() *clusterMetrics {
	return &clusterMetrics{completedTotal: make(map[string]int64)}
}

func (m *clusterMetrics) submitted() { m.bump(&m.submittedTotal) }
func (m *clusterMetrics) rejected()  { m.bump(&m.rejectedTotal) }
func (m *clusterMetrics) joined()    { m.bump(&m.joinsTotal) }
func (m *clusterMetrics) duplicate() { m.bump(&m.duplicatesTotal) }
func (m *clusterMetrics) failed()    { m.bump(&m.failedTotal) }
func (m *clusterMetrics) shipped()   { m.bump(&m.cacheShipsTotal) }

func (m *clusterMetrics) quarantinedUpload() { m.bump(&m.quarantinedUploads) }

func (m *clusterMetrics) bump(c *int64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

func (m *clusterMetrics) leased(warm bool) {
	m.mu.Lock()
	m.leasesTotal++
	if warm {
		m.warmLeasesTotal++
	}
	m.mu.Unlock()
}

func (m *clusterMetrics) completed(kind string, status int) {
	m.mu.Lock()
	m.completedTotal[fmt.Sprintf("%s/%d", kind, status)]++
	m.mu.Unlock()
}

func (m *clusterMetrics) cacheTransferred(n int) {
	m.mu.Lock()
	m.cacheBytesTotal += int64(n)
	m.mu.Unlock()
}

// writePrometheus renders the coordinator state in Prometheus text
// format.
func (c *Coordinator) writePrometheus(w io.Writer) {
	st := c.led.Stats()
	storeBytes, storeBlobs := c.store.stats()

	m := c.met
	m.mu.Lock()
	defer m.mu.Unlock()
	p := prom.New(w)

	p.Metric("passivityd_cluster_members", "gauge", "Live worker hosts.", st.Members)
	p.Metric("passivityd_cluster_leases_active", "gauge", "Items currently leased to a host.", st.Leased)
	p.Metric("passivityd_cluster_queue_depth", "gauge", "Items queued on member queues.", st.Queued)
	p.Metric("passivityd_cluster_pending", "gauge", "Admitted-but-unfinished ledger items.", st.Items)

	p.Metric("passivityd_cluster_jobs_submitted_total", "counter", "Jobs admitted to the ledger.", m.submittedTotal)
	p.Metric("passivityd_cluster_jobs_rejected_total", "counter", "Jobs rejected at admission (ledger full).", m.rejectedTotal)
	p.Metric("passivityd_cluster_joins_total", "counter", "Worker host registrations.", m.joinsTotal)
	p.Metric("passivityd_cluster_leaves_total", "counter", "Worker hosts evicted (lost or re-joined).", st.Leaves)

	p.Metric("passivityd_cluster_leases_total", "counter", "Leases issued.", m.leasesTotal)
	p.Metric("passivityd_cluster_warm_leases_total", "counter", "Leases placed on a host already holding the fingerprint warm.", m.warmLeasesTotal)
	p.Metric("passivityd_cluster_steals_total", "counter", "Leases served by stealing from a peer's queue.", st.Steals)
	p.Metric("passivityd_cluster_requeues_total", "counter", "Leased items requeued after lease expiry or host loss.", st.Requeues)
	p.Metric("passivityd_cluster_duplicates_dropped_total", "counter", "Completions discarded for a stale epoch or unknown item.", m.duplicatesTotal)

	p.KindStatus("passivityd_cluster_jobs_completed_total", "Results recorded, by kind and HTTP status.", m.completedTotal)
	p.Metric("passivityd_cluster_jobs_failed_total", "counter", "Items failed by the coordinator itself (attempts spent, shutdown).", m.failedTotal)

	p.Metric("passivityd_cluster_quarantined_uploads_total", "counter", "Corrupt cache uploads quarantined at ingest.", m.quarantinedUploads)
	p.Metric("passivityd_cluster_cache_ships_total", "counter", "Leases that carried a warm-cache address for the host to fetch.", m.cacheShipsTotal)
	p.Metric("passivityd_cluster_cache_transfers_bytes_total", "counter", "Cache bytes moved through the store, uploads plus downloads.", m.cacheBytesTotal)
	p.Metric("passivityd_cluster_cache_store_bytes", "gauge", "Resident bytes in the content-addressed store.", storeBytes)
	p.Metric("passivityd_cluster_cache_store_blobs", "gauge", "Resident blobs in the content-addressed store.", storeBlobs)
}
