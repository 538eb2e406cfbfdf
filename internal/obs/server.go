package obs

import "time"

// ServerStats accumulates the request-level counters of the serving
// layer (internal/server, cmd/pdced): the Count fields of its embedded
// ServerSnapshot, bumped in place (s.CacheHits.Add(1)), beside the
// request latency window. It is safe for concurrent use: counters are
// atomic, the latency window takes a short mutex per sample.
//
// The counters classify each request's path through the server:
// a request is answered from the in-memory or spilled cache (CacheHits),
// coalesced onto a concurrent identical computation (Dedups), shed at
// admission (ShedQueueFull) or during drain (ShedDraining), or actually
// optimized (Optimizes — the only counter whose increment means solver
// work happened). An async job's execution counts from its L2 read on,
// as a request's miss does: in CacheHits on an L2 hit, then in
// CacheMisses, Dedups and Optimizes. Panics and Degraded track the
// containment layer's outcomes; ParseFailures the inputs that never
// reached the optimizer.
type ServerStats struct {
	ServerSnapshot

	lat window // request latencies, ns
}

// RecordLatency feeds one served request's wall-clock duration into
// the latency window.
func (s *ServerStats) RecordLatency(d time.Duration) {
	s.lat.record(int64(d))
}

// ServerSnapshot is the "server" section of pdced's /metrics payload,
// and the declaration of ServerStats' counters.
type ServerSnapshot struct {
	Requests      Count `json:"requests"`
	BatchRequests Count `json:"batch_requests"`
	// Optimizes counts actual optimizer runs, async job executions
	// included; every other request was answered from the cache,
	// coalesced, or shed.
	Optimizes   Count `json:"optimizes"`
	CacheHits   Count `json:"cache_hits"`
	CacheMisses Count `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses) over served lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Dedups counts requests answered by another request's identical
	// computation: a singleflight leader they waited for, one that
	// finished after their L1 lookup missed, or the replica holding the
	// key's lease.
	Dedups Count `json:"dedups"`
	// Load shedding: requests rejected because the admission queue was
	// full (429) or the server was draining (503).
	ShedQueueFull Count `json:"shed_queue_full"`
	ShedDraining  Count `json:"shed_draining"`
	// Containment outcomes: contained optimizer panics (500) and
	// degraded partial results (deadline/rollback, served 200).
	Panics        Count `json:"panics"`
	Degraded      Count `json:"degraded"`
	ParseFailures Count `json:"parse_failures"`

	// Request latency over the most recent window (nearest-rank
	// percentiles); Samples is the lifetime sample count.
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	MaxNS   int64 `json:"max_ns"`
	Samples int64 `json:"latency_samples"`
}

// Snapshot freezes the counters and computes the hit rate and the
// latency percentiles.
func (s *ServerStats) Snapshot() ServerSnapshot {
	snap := Freeze(&s.ServerSnapshot)
	if lookups := snap.CacheHits + snap.CacheMisses; lookups > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(lookups)
	}
	lat := s.lat.stats()
	snap.P50NS, snap.P95NS, snap.MaxNS, snap.Samples = lat.p50, lat.p95, lat.max, lat.count
	return snap
}
