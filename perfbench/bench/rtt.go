package bench

import "panoptes/internal/mitm"

// ProxyCounters is a snapshot of the proxy's public counters.
type ProxyCounters struct {
	Reused, Dialed                               int64 // ConnReuseStats
	ClientResumed, ClientFull, UpResumed, UpFull int64 // ResumptionStats
	CertMints, HandshakeFailures                 int64
	PoolHits, PoolMisses, PoolEvicted            int64
}

// SnapshotProxy reads every counter the benchmark reports.
func SnapshotProxy(p *mitm.Proxy) ProxyCounters {
	var c ProxyCounters
	c.Reused, c.Dialed = p.ConnReuseStats()
	c.ClientResumed, c.ClientFull, c.UpResumed, c.UpFull = p.ResumptionStats()
	_, mints := p.CertCacheStats()
	c.CertMints = int64(mints)
	c.HandshakeFailures = int64(p.HandshakeFailures())
	ps := p.PoolStats()
	c.PoolHits, c.PoolMisses = ps.Hits, ps.Misses
	c.PoolEvicted = ps.EvictedAge + ps.EvictedCap
	return c
}

// Exchanges is the number of forwarded exchanges: each one either
// reuses a pooled upstream connection or dials a fresh one.
func (c ProxyCounters) Exchanges() int64 { return c.Reused + c.Dialed }

// Handshakes counts TLS handshakes on both sides of the proxy.
func (c ProxyCounters) Handshakes() int64 {
	return c.ClientResumed + c.ClientFull + c.UpResumed + c.UpFull
}

// RTTWaits derives how many modelled wide-area round trips
// (mitm.Config.UpstreamRTT) the proxy waited for: one per forwarded
// exchange, one per fresh upstream dial (the TCP connect flight) and
// one per upstream TLS handshake, full or resumed. A WebSocket upgrade
// dials its upstream outside the exchange path, so its connect flight
// is not in ConnReuseStats; wsUpgrades adds one wait for each.
func RTTWaits(c ProxyCounters, wsUpgrades int64) int64 {
	return c.Exchanges() + c.Dialed + c.UpResumed + c.UpFull + wsUpgrades
}
