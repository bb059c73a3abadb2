package cluster

// WarmLeaseRatio reports the fraction of leases that landed on a member
// already holding the item's fingerprint warm — the cluster-level
// analogue of the single-host affinity hit ratio, and the warm-transfer
// hit rate BENCH_10.json records.
func (c *Coordinator) WarmLeaseRatio() float64 {
	c.met.mu.Lock()
	defer c.met.mu.Unlock()
	if c.met.leasesTotal == 0 {
		return 0
	}
	return float64(c.met.warmLeasesTotal) / float64(c.met.leasesTotal)
}

// StealsTotal reports how many leases were served by stealing from a
// peer's queue.
func (c *Coordinator) StealsTotal() int64 { return c.led.Stats().Steals }
