package store

import (
	"encoding/json"
	"time"

	"pdce/internal/obs"
)

// Cluster-wide singleflight.
//
// Within one replica, concurrent identical requests are deduplicated
// by the server's in-process singleflight. Across a fleet the same
// thundering herd — N replicas all cold on the same key — needs a
// shared arbiter, and the write-once Backend already is one: a Put
// either creates the key or doesn't, atomically. A lease is a small
// record Put under a derived key; whoever's record lands owns the
// solve, everyone else polls for the owner's published result instead
// of re-solving.
//
// Leases carry a TTL and are never renewed, which bounds every
// failure mode: a crashed owner's lease expires and the next claimant
// deletes it and takes over, so a dead replica can never wedge the
// fleet. The delete-then-reclaim window means two replicas can
// occasionally both believe they own a key — that costs one duplicate
// solve of a deterministic function, not a correctness bug, which is
// why this CAS does not need to be perfect, only cheap.

// Lease arbitrates solve ownership for content addresses over a
// shared Backend.
type Lease struct {
	b     Backend
	owner string
	ttl   time.Duration
	stats *obs.StoreStats

	// now is the clock, swappable in tests.
	now func() time.Time
}

// NewLease builds a lease arbiter. owner must be unique per replica
// (pdced defaults it to a random id per boot — a restarted replica
// must not inherit its dead predecessor's leases). A nil stats counts
// into a StoreStats of the lease's own.
func NewLease(b Backend, owner string, ttl time.Duration, stats *obs.StoreStats) *Lease {
	if stats == nil {
		stats = &obs.StoreStats{}
	}
	return &Lease{b: b, owner: owner, ttl: ttl, stats: stats, now: time.Now}
}

// TTL returns the configured lease lifetime.
func (l *Lease) TTL() time.Duration { return l.ttl }

// LeaseKey derives the lease record's store key for a blob key. It is
// exported so tests and operators can inspect lease records directly.
func LeaseKey(key string) string { return "lease-" + key }

// leaseRecord is the JSON payload of a lease blob.
type leaseRecord struct {
	Owner string `json:"owner"`
	// ExpiresMS is the expiry wall clock in Unix milliseconds.
	// Wall-clock expiry across machines assumes loosely synchronized
	// clocks; skew on the order of the TTL only shifts how soon a
	// crashed owner's lease is reclaimed.
	ExpiresMS int64 `json:"expires_ms"`
}

// Acquire tries to claim the solve lease for key. won true means the
// caller owns the solve and should Release after publishing (or
// abandoning) its result. won false with nil error means another
// replica holds a live lease — poll the store for its result, or call
// Acquire again to take over once it expires. An error means the
// backend is unreachable; callers should solve locally.
func (l *Lease) Acquire(key string) (won bool, err error) {
	lk := LeaseKey(key)
	rec, _ := json.Marshal(leaseRecord{
		Owner:     l.owner,
		ExpiresMS: l.now().Add(l.ttl).UnixMilli(),
	})
	// A few rounds of put / read-back / expire absorb every
	// interleaving; the bound only guards against a pathological
	// backend, not a real schedule.
	for attempt := 0; attempt < 4; attempt++ {
		if _, err := l.b.Put(lk, rec); err != nil {
			return false, err
		}
		cur, err := l.b.Get(lk)
		if err == ErrNotFound {
			continue // holder released between our put and read; retry
		}
		if err != nil {
			return false, err
		}
		var held leaseRecord
		if json.Unmarshal(cur, &held) != nil || held.Owner == "" {
			// Garbage record (torn write survived a checksum-less
			// backend, or a buggy writer): break it and retry.
			l.b.Delete(lk)
			continue
		}
		if held.Owner == l.owner {
			return true, nil
		}
		if held.ExpiresMS <= l.now().UnixMilli() {
			// The owner died (or stalled past its TTL). Reclaim: delete
			// the corpse and race for the empty slot on the next round.
			l.stats.LeaseExpiries.Add(1)
			l.b.Delete(lk)
			continue
		}
		return false, nil
	}
	return false, nil
}

// Release frees the lease for key if this replica holds it. Releasing
// a lease that was lost, expired, or never acquired is a no-op —
// Release is safe to call on every exit path.
func (l *Lease) Release(key string) {
	lk := LeaseKey(key)
	cur, err := l.b.Get(lk)
	if err != nil {
		return
	}
	var held leaseRecord
	if json.Unmarshal(cur, &held) != nil || held.Owner != l.owner {
		return
	}
	l.b.Delete(lk)
}
