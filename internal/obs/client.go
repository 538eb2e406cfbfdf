package obs

import (
	"sync"
	"time"
)

// ClientStats accumulates the request-level counters of the
// cluster-aware client (pdce.Pool): where requests were routed, how
// often the router had to give up on a replica, and what hedging won.
// It holds the Count fields of its embedded ClientSnapshot, one
// ReplicaCounters per replica (see Replica), and the latency window,
// and is safe for concurrent use.
//
// The affinity counters classify completed requests by whether the
// replica that answered was the key's home replica (the first ring
// member for its affinity hash). On a healthy ring the hit rate is
// 1.0; it degrades exactly as far as ejections, cooldowns, and hedges
// force traffic off home nodes, which makes it the single number to
// watch for cache-locality health.
type ClientStats struct {
	// One word before the snapshot puts the Count fields after its
	// Replicas map at 8-byte offsets on 32-bit platforms too (Count).
	replicas map[string]*ReplicaCounters
	ClientSnapshot

	mu  sync.Mutex
	lat window // successful request latencies, ns
}

// ReplicaCounters is one replica's view of the pool's traffic.
type ReplicaCounters struct {
	// Attempts counts requests sent to the replica (including hedges);
	// Failures the subset that came back with a retryable failure.
	Attempts Count `json:"attempts"`
	Failures Count `json:"failures"`
	// Ejections counts health transitions out of the ring (failed
	// probe, draining report, transport failure), Readmissions the
	// probe-driven returns.
	Ejections    Count `json:"ejections"`
	Readmissions Count `json:"readmissions"`
}

// Replica returns base's live counters, created on first use; a
// replica appears in the snapshot from then on.
func (s *ClientStats) Replica(base string) *ReplicaCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, ok := s.replicas[base]
	if !ok {
		if s.replicas == nil {
			s.replicas = make(map[string]*ReplicaCounters)
		}
		rc = &ReplicaCounters{}
		s.replicas[base] = rc
	}
	return rc
}

// RecordLatency feeds one successful request's end-to-end duration
// (including retries and hedging) into the latency window.
func (s *ClientStats) RecordLatency(d time.Duration) {
	s.lat.record(int64(d))
}

// P95 returns the 95th-percentile successful-request latency over the
// current window, or 0 when no samples exist. Pool derives its default
// hedge delay from it: hedging below the p95 would duplicate most
// requests, hedging at it only the slow tail.
func (s *ClientStats) P95() time.Duration {
	return time.Duration(s.lat.stats().p95)
}

// ClientSnapshot is the frozen, JSON-taggable view of ClientStats, and
// the declaration of its counters.
type ClientSnapshot struct {
	// Replicas maps each replica base URL to its counters.
	Replicas map[string]ReplicaCounters `json:"replicas,omitempty"`
	// Failovers counts retries that moved to a different ring member.
	Failovers Count `json:"failovers"`
	// Hedges/HedgesWon count launched hedged requests and those that
	// answered before their primary.
	Hedges    Count `json:"hedges"`
	HedgesWon Count `json:"hedges_won"`
	// Affinity hit/miss counts and their ratio over completed requests:
	// a request answered by its key's home replica, or by any other.
	AffinityHits    Count   `json:"affinity_hits"`
	AffinityMisses  Count   `json:"affinity_misses"`
	AffinityHitRate float64 `json:"affinity_hit_rate"`
	// ParseFallbacks counts affinity keys derived from raw bytes
	// because the client-side parse failed (the server will reject the
	// request, but it still has to be routed somewhere).
	ParseFallbacks Count `json:"parse_fallbacks"`

	// Successful-request latency over the most recent window
	// (nearest-rank percentiles); Samples is the lifetime count.
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	MaxNS   int64 `json:"max_ns"`
	Samples int64 `json:"latency_samples"`
}

// Snapshot freezes the counters, each replica's included, and computes
// the affinity hit rate and the latency percentiles.
func (s *ClientStats) Snapshot() ClientSnapshot {
	snap := Freeze(&s.ClientSnapshot)
	if total := snap.AffinityHits + snap.AffinityMisses; total > 0 {
		snap.AffinityHitRate = float64(snap.AffinityHits) / float64(total)
	}
	s.mu.Lock()
	if len(s.replicas) > 0 {
		snap.Replicas = make(map[string]ReplicaCounters, len(s.replicas))
		for base, rc := range s.replicas {
			snap.Replicas[base] = Freeze(rc)
		}
	}
	s.mu.Unlock()

	lat := s.lat.stats()
	snap.P50NS, snap.P95NS, snap.MaxNS, snap.Samples = lat.p50, lat.p95, lat.max, lat.count
	return snap
}
