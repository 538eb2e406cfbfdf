package obs

import (
	"sync/atomic"
	"time"
)

// ServerStats accumulates the request-level counters of the serving
// layer (internal/server, cmd/pdced). Like the rest of this package it
// is nil-safe — every method does nothing on a nil receiver — and safe
// for concurrent use: counters are atomic, the latency window takes a
// short mutex per sample.
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
	requests      atomic.Int64
	batchRequests atomic.Int64
	optimizes     atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	dedups        atomic.Int64
	shedQueueFull atomic.Int64
	shedDraining  atomic.Int64
	panics        atomic.Int64
	degraded      atomic.Int64
	parseFailures atomic.Int64

	lat window // request latencies, ns
}

// Nil-safe counter increments, one per request classification.

func (s *ServerStats) AddRequest() {
	if s != nil {
		s.requests.Add(1)
	}
}

func (s *ServerStats) AddBatchRequest() {
	if s != nil {
		s.batchRequests.Add(1)
	}
}

func (s *ServerStats) AddOptimize() {
	if s != nil {
		s.optimizes.Add(1)
	}
}

func (s *ServerStats) AddCacheHit() {
	if s != nil {
		s.cacheHits.Add(1)
	}
}

func (s *ServerStats) AddCacheMiss() {
	if s != nil {
		s.cacheMisses.Add(1)
	}
}

func (s *ServerStats) AddDedup() {
	if s != nil {
		s.dedups.Add(1)
	}
}

func (s *ServerStats) AddShedQueueFull() {
	if s != nil {
		s.shedQueueFull.Add(1)
	}
}

func (s *ServerStats) AddShedDraining() {
	if s != nil {
		s.shedDraining.Add(1)
	}
}

func (s *ServerStats) AddPanic() {
	if s != nil {
		s.panics.Add(1)
	}
}

func (s *ServerStats) AddDegraded() {
	if s != nil {
		s.degraded.Add(1)
	}
}

func (s *ServerStats) AddParseFailure() {
	if s != nil {
		s.parseFailures.Add(1)
	}
}

// RecordLatency feeds one served request's wall-clock duration into
// the latency window.
func (s *ServerStats) RecordLatency(d time.Duration) {
	if s != nil {
		s.lat.record(int64(d))
	}
}

// Optimizes returns the number of actual optimizer runs so far — the
// counter E2E tests watch to prove a cache hit did no solver work.
func (s *ServerStats) Optimizes() int64 {
	if s == nil {
		return 0
	}
	return s.optimizes.Load()
}

// ServerSnapshot is the frozen, JSON-taggable view of ServerStats —
// the "server" section of pdced's /metrics payload.
type ServerSnapshot struct {
	Requests      int64 `json:"requests"`
	BatchRequests int64 `json:"batch_requests"`
	// Optimizes counts actual optimizer runs, async job executions
	// included; every other request was answered from the cache,
	// coalesced, or shed.
	Optimizes   int64 `json:"optimizes"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses) over served lookups.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Dedups counts requests coalesced onto an identical in-flight
	// computation by singleflight.
	Dedups int64 `json:"dedups"`
	// Load shedding: requests rejected because the admission queue was
	// full (429) or the server was draining (503).
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDraining  int64 `json:"shed_draining"`
	// Containment outcomes: contained optimizer panics (500) and
	// degraded partial results (deadline/rollback, served 200).
	Panics        int64 `json:"panics"`
	Degraded      int64 `json:"degraded"`
	ParseFailures int64 `json:"parse_failures"`

	// Request latency over the most recent window (nearest-rank
	// percentiles); Samples is the lifetime sample count.
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	MaxNS   int64 `json:"max_ns"`
	Samples int64 `json:"latency_samples"`
}

// Snapshot freezes the counters and computes the latency percentiles.
// Nil-safe: a nil receiver yields a zero snapshot.
func (s *ServerStats) Snapshot() ServerSnapshot {
	if s == nil {
		return ServerSnapshot{}
	}
	snap := ServerSnapshot{
		Requests:      s.requests.Load(),
		BatchRequests: s.batchRequests.Load(),
		Optimizes:     s.optimizes.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		Dedups:        s.dedups.Load(),
		ShedQueueFull: s.shedQueueFull.Load(),
		ShedDraining:  s.shedDraining.Load(),
		Panics:        s.panics.Load(),
		Degraded:      s.degraded.Load(),
		ParseFailures: s.parseFailures.Load(),
	}
	if lookups := snap.CacheHits + snap.CacheMisses; lookups > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(lookups)
	}
	lat := s.lat.stats()
	snap.P50NS, snap.P95NS, snap.MaxNS, snap.Samples = lat.p50, lat.p95, lat.max, lat.count
	return snap
}
