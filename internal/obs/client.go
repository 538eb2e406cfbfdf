package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// ClientStats accumulates the request-level counters of the
// cluster-aware client (pdce.Pool): where requests were routed, how
// often the router had to give up on a replica, and what hedging won.
// Like ServerStats it is nil-safe — every method does nothing on a nil
// receiver — and safe for concurrent use.
//
// The affinity counters classify completed requests by whether the
// replica that answered was the key's home replica (the first ring
// member for its affinity hash). On a healthy ring the hit rate is
// 1.0; it degrades exactly as far as ejections, cooldowns, and hedges
// force traffic off home nodes, which makes it the single number to
// watch for cache-locality health.
type ClientStats struct {
	mu       sync.Mutex
	replicas map[string]*ReplicaCounters

	failovers     atomic.Int64
	hedges        atomic.Int64
	hedgesWon     atomic.Int64
	affinityHits  atomic.Int64
	affinityMiss  atomic.Int64
	parseFallback atomic.Int64

	lat window // successful request latencies, ns
}

// ReplicaCounters is one replica's view of the pool's traffic.
type ReplicaCounters struct {
	// Attempts counts requests sent to the replica (including hedges);
	// Failures the subset that came back with a retryable failure.
	Attempts int64 `json:"attempts"`
	Failures int64 `json:"failures"`
	// Ejections counts health transitions out of the ring (failed
	// probe, draining report, transport failure), Readmissions the
	// probe-driven returns.
	Ejections    int64 `json:"ejections"`
	Readmissions int64 `json:"readmissions"`
}

func (s *ClientStats) replica(base string) *ReplicaCounters {
	if s.replicas == nil {
		s.replicas = make(map[string]*ReplicaCounters)
	}
	rc, ok := s.replicas[base]
	if !ok {
		rc = &ReplicaCounters{}
		s.replicas[base] = rc
	}
	return rc
}

// AddAttempt counts one request sent to base.
func (s *ClientStats) AddAttempt(base string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.replica(base).Attempts++
	s.mu.Unlock()
}

// AddFailure counts one failed attempt against base.
func (s *ClientStats) AddFailure(base string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.replica(base).Failures++
	s.mu.Unlock()
}

// AddEjection counts base leaving the healthy set.
func (s *ClientStats) AddEjection(base string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.replica(base).Ejections++
	s.mu.Unlock()
}

// AddReadmission counts base returning to the healthy set.
func (s *ClientStats) AddReadmission(base string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.replica(base).Readmissions++
	s.mu.Unlock()
}

// AddFailover counts one retry that moved to a different ring member.
func (s *ClientStats) AddFailover() {
	if s != nil {
		s.failovers.Add(1)
	}
}

// AddHedge counts one launched hedged request; AddHedgeWin the subset
// where the hedge answered before the primary.
func (s *ClientStats) AddHedge() {
	if s != nil {
		s.hedges.Add(1)
	}
}

func (s *ClientStats) AddHedgeWin() {
	if s != nil {
		s.hedgesWon.Add(1)
	}
}

// AddAffinityHit counts a request answered by its key's home replica;
// AddAffinityMiss one answered anywhere else.
func (s *ClientStats) AddAffinityHit() {
	if s != nil {
		s.affinityHits.Add(1)
	}
}

func (s *ClientStats) AddAffinityMiss() {
	if s != nil {
		s.affinityMiss.Add(1)
	}
}

// AddParseFallback counts an affinity key computed from the raw source
// bytes because the client-side parse failed (the server will reject
// the request, but it still has to be routed somewhere).
func (s *ClientStats) AddParseFallback() {
	if s != nil {
		s.parseFallback.Add(1)
	}
}

// RecordLatency feeds one successful request's end-to-end duration
// (including retries and hedging) into the latency window.
func (s *ClientStats) RecordLatency(d time.Duration) {
	if s != nil {
		s.lat.record(int64(d))
	}
}

// P95 returns the 95th-percentile successful-request latency over the
// current window, or 0 when no samples exist. Pool derives its default
// hedge delay from it: hedging below the p95 would duplicate most
// requests, hedging at it only the slow tail.
func (s *ClientStats) P95() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.lat.stats().p95)
}

// ClientSnapshot is the frozen, JSON-taggable view of ClientStats.
type ClientSnapshot struct {
	// Replicas maps each replica base URL to its counters.
	Replicas map[string]ReplicaCounters `json:"replicas,omitempty"`
	// Failovers counts retries that moved to a different ring member.
	Failovers int64 `json:"failovers"`
	// Hedges/HedgesWon count launched hedged requests and those that
	// answered before their primary.
	Hedges    int64 `json:"hedges"`
	HedgesWon int64 `json:"hedges_won"`
	// Affinity hit/miss counts and their ratio over completed requests.
	AffinityHits    int64   `json:"affinity_hits"`
	AffinityMisses  int64   `json:"affinity_misses"`
	AffinityHitRate float64 `json:"affinity_hit_rate"`
	// ParseFallbacks counts affinity keys derived from raw bytes
	// because the client-side parse failed.
	ParseFallbacks int64 `json:"parse_fallbacks"`

	// Successful-request latency over the most recent window
	// (nearest-rank percentiles); Samples is the lifetime count.
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	MaxNS   int64 `json:"max_ns"`
	Samples int64 `json:"latency_samples"`
}

// Snapshot freezes the counters. Nil-safe: a nil receiver yields a
// zero snapshot.
func (s *ClientStats) Snapshot() ClientSnapshot {
	if s == nil {
		return ClientSnapshot{}
	}
	snap := ClientSnapshot{
		Failovers:      s.failovers.Load(),
		Hedges:         s.hedges.Load(),
		HedgesWon:      s.hedgesWon.Load(),
		AffinityHits:   s.affinityHits.Load(),
		AffinityMisses: s.affinityMiss.Load(),
		ParseFallbacks: s.parseFallback.Load(),
	}
	if total := snap.AffinityHits + snap.AffinityMisses; total > 0 {
		snap.AffinityHitRate = float64(snap.AffinityHits) / float64(total)
	}
	s.mu.Lock()
	if len(s.replicas) > 0 {
		snap.Replicas = make(map[string]ReplicaCounters, len(s.replicas))
		for base, rc := range s.replicas {
			snap.Replicas[base] = *rc
		}
	}
	s.mu.Unlock()

	lat := s.lat.stats()
	snap.P50NS, snap.P95NS, snap.MaxNS, snap.Samples = lat.p50, lat.p95, lat.max, lat.count
	return snap
}
