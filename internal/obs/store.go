package obs

import "time"

// StoreStats accumulates the shared L2 blob store's counters
// (internal/store wired through internal/server): the Count fields of
// its embedded StoreSnapshot, bumped in place, beside the L2 get
// latency window. It is safe for concurrent use.
//
// The counters split into the read path (L2Hits/L2Misses plus
// GetFailures, backend errors served as misses), the publish path
// (Puts and PutFailures — puts are best-effort and asynchronous, so a
// failure costs the fleet a warm entry, never a request), and the
// cluster singleflight (LeaseWins — solves this replica owned,
// LeaseLosses — solves another replica owned, LeaseExpiries — dead
// owners' leases reclaimed, LeaseFetches — results fetched from the
// winning replica instead of re-solved, LeaseErrors — lease traffic
// that failed against the backend).
type StoreStats struct {
	StoreSnapshot

	lat window // L2 get latencies, ns
}

// RecordGetLatency feeds one L2 get's wall-clock duration into the
// latency window.
func (s *StoreStats) RecordGetLatency(d time.Duration) {
	s.lat.record(int64(d))
}

// StoreSnapshot is the "store" section of pdced's /metrics payload,
// and the declaration of StoreStats' counters.
type StoreSnapshot struct {
	// Backend contents (zero when the backend cannot report, e.g. a
	// peer without a /stats surface).
	Blobs int64 `json:"blobs"`
	Bytes int64 `json:"bytes"`

	// L2 read path: hits backfill L1, misses fall through to the
	// lease-arbitrated solve, get failures are backend errors served
	// as misses.
	L2Hits      Count   `json:"l2_hits"`
	L2Misses    Count   `json:"l2_misses"`
	L2HitRate   float64 `json:"l2_hit_rate"`
	GetFailures Count   `json:"l2_get_failures"`

	// Publish path: best-effort async puts after local solves.
	Puts        Count `json:"l2_puts"`
	PutFailures Count `json:"l2_put_failures"`

	// Cluster singleflight: solves owned here, solves owned elsewhere,
	// dead owners' leases reclaimed, results fetched from the winner
	// instead of re-solved, and lease traffic lost to backend errors.
	LeaseWins     Count `json:"lease_wins"`
	LeaseLosses   Count `json:"lease_losses"`
	LeaseExpiries Count `json:"lease_expiries"`
	LeaseFetches  Count `json:"lease_fetches"`
	LeaseErrors   Count `json:"lease_errors"`

	// L2 get latency over the most recent window (nearest-rank
	// percentiles); Samples is the lifetime sample count.
	GetP50NS int64 `json:"get_p50_ns"`
	GetP95NS int64 `json:"get_p95_ns"`
	GetMaxNS int64 `json:"get_max_ns"`
	Samples  int64 `json:"get_latency_samples"`
}

// Snapshot freezes the counters and computes the hit rate and the get
// latency percentiles. The caller fills in Blobs and Bytes.
func (s *StoreStats) Snapshot() StoreSnapshot {
	snap := Freeze(&s.StoreSnapshot)
	if lookups := snap.L2Hits + snap.L2Misses; lookups > 0 {
		snap.L2HitRate = float64(snap.L2Hits) / float64(lookups)
	}
	lat := s.lat.stats()
	snap.GetP50NS, snap.GetP95NS, snap.GetMaxNS, snap.Samples = lat.p50, lat.p95, lat.max, lat.count
	return snap
}
