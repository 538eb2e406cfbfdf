package obs

import (
	"sync/atomic"
	"time"
)

// StoreStats accumulates the shared L2 blob store's counters
// (internal/store wired through internal/server). Like the rest of
// this package it is nil-safe — every method does nothing on a nil
// receiver — and safe for concurrent use.
//
// The counters split into the read path (L2Hits/L2Misses plus
// GetFailures, backend errors served as misses), the publish path
// (Puts and PutFailures — puts are best-effort and asynchronous, so a
// failure costs the fleet a warm entry, never a request), and the
// cluster singleflight (LeaseWins — solves this replica owned,
// LeaseLosses — solves another replica owned, LeaseExpiries — dead
// owners' leases reclaimed, LeaseFetches — results fetched from the
// winning replica instead of re-solved, LeaseErrors — lease traffic
// that failed against the backend). Gauges only the backend knows —
// blob count and byte total — are passed into Snapshot by the caller.
type StoreStats struct {
	l2Hits      atomic.Int64
	l2Misses    atomic.Int64
	puts        atomic.Int64
	putFailures atomic.Int64
	getFailures atomic.Int64

	leaseWins     atomic.Int64
	leaseLosses   atomic.Int64
	leaseExpiries atomic.Int64
	leaseFetches  atomic.Int64
	leaseErrors   atomic.Int64

	lat window // L2 get latencies, ns
}

// Nil-safe counter increments, one per store event.

func (s *StoreStats) AddL2Hit() {
	if s != nil {
		s.l2Hits.Add(1)
	}
}

func (s *StoreStats) AddL2Miss() {
	if s != nil {
		s.l2Misses.Add(1)
	}
}

func (s *StoreStats) AddPut() {
	if s != nil {
		s.puts.Add(1)
	}
}

func (s *StoreStats) AddPutFailure() {
	if s != nil {
		s.putFailures.Add(1)
	}
}

func (s *StoreStats) AddGetFailure() {
	if s != nil {
		s.getFailures.Add(1)
	}
}

func (s *StoreStats) AddLeaseWin() {
	if s != nil {
		s.leaseWins.Add(1)
	}
}

func (s *StoreStats) AddLeaseLoss() {
	if s != nil {
		s.leaseLosses.Add(1)
	}
}

func (s *StoreStats) AddLeaseExpiry() {
	if s != nil {
		s.leaseExpiries.Add(1)
	}
}

func (s *StoreStats) AddLeaseFetch() {
	if s != nil {
		s.leaseFetches.Add(1)
	}
}

func (s *StoreStats) AddLeaseError() {
	if s != nil {
		s.leaseErrors.Add(1)
	}
}

// L2Hits returns the L2 hit count — the counter fleet benchmarks and
// tests watch to prove a restarted replica warmed from the store.
func (s *StoreStats) L2Hits() int64 {
	if s == nil {
		return 0
	}
	return s.l2Hits.Load()
}

// LeaseExpiries returns the reclaimed-lease count (tests).
func (s *StoreStats) LeaseExpiries() int64 {
	if s == nil {
		return 0
	}
	return s.leaseExpiries.Load()
}

// RecordGetLatency feeds one L2 get's wall-clock duration into the
// latency window.
func (s *StoreStats) RecordGetLatency(d time.Duration) {
	if s != nil {
		s.lat.record(int64(d))
	}
}

// StoreGauges is the instantaneous backend state passed into Snapshot
// alongside the lifetime counters.
type StoreGauges struct {
	// Blobs/Bytes size the backend's current contents (zero when the
	// backend cannot report, e.g. a peer without a /stats surface).
	Blobs int64
	Bytes int64
}

// StoreSnapshot is the frozen, JSON-taggable view of StoreStats — the
// "store" section of pdced's /metrics payload.
type StoreSnapshot struct {
	// Backend contents.
	Blobs int64 `json:"blobs"`
	Bytes int64 `json:"bytes"`

	// L2 read path: hits backfill L1, misses fall through to the
	// lease-arbitrated solve, get failures are backend errors served
	// as misses.
	L2Hits      int64   `json:"l2_hits"`
	L2Misses    int64   `json:"l2_misses"`
	L2HitRate   float64 `json:"l2_hit_rate"`
	GetFailures int64   `json:"l2_get_failures"`

	// Publish path: best-effort async puts after local solves.
	Puts        int64 `json:"l2_puts"`
	PutFailures int64 `json:"l2_put_failures"`

	// Cluster singleflight: solves owned here, solves owned elsewhere,
	// dead owners' leases reclaimed, results fetched from the winner
	// instead of re-solved, and lease traffic lost to backend errors.
	LeaseWins     int64 `json:"lease_wins"`
	LeaseLosses   int64 `json:"lease_losses"`
	LeaseExpiries int64 `json:"lease_expiries"`
	LeaseFetches  int64 `json:"lease_fetches"`
	LeaseErrors   int64 `json:"lease_errors"`

	// L2 get latency over the most recent window (nearest-rank
	// percentiles); Samples is the lifetime sample count.
	GetP50NS int64 `json:"get_p50_ns"`
	GetP95NS int64 `json:"get_p95_ns"`
	GetMaxNS int64 `json:"get_max_ns"`
	Samples  int64 `json:"get_latency_samples"`
}

// Snapshot freezes the counters together with the caller-supplied
// gauges. Nil-safe: a nil receiver yields a snapshot of the gauges
// alone.
func (s *StoreStats) Snapshot(g StoreGauges) StoreSnapshot {
	snap := StoreSnapshot{Blobs: g.Blobs, Bytes: g.Bytes}
	if s == nil {
		return snap
	}
	snap.L2Hits = s.l2Hits.Load()
	snap.L2Misses = s.l2Misses.Load()
	snap.GetFailures = s.getFailures.Load()
	snap.Puts = s.puts.Load()
	snap.PutFailures = s.putFailures.Load()
	snap.LeaseWins = s.leaseWins.Load()
	snap.LeaseLosses = s.leaseLosses.Load()
	snap.LeaseExpiries = s.leaseExpiries.Load()
	snap.LeaseFetches = s.leaseFetches.Load()
	snap.LeaseErrors = s.leaseErrors.Load()
	if lookups := snap.L2Hits + snap.L2Misses; lookups > 0 {
		snap.L2HitRate = float64(snap.L2Hits) / float64(lookups)
	}
	lat := s.lat.stats()
	snap.GetP50NS, snap.GetP95NS, snap.GetMaxNS, snap.Samples = lat.p50, lat.p95, lat.max, lat.count
	return snap
}
