package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrQueueFull is returned by Admission.Acquire when both the work
// slots and the wait queue are exhausted — the load-shedding signal
// the HTTP layer maps to 429 with Retry-After.
var ErrQueueFull = errors.New("pdced: work queue full")

// Admission is the server's admission controller: at most maxInFlight
// requests hold a work slot at once, at most maxQueue more wait for
// one, and everything beyond that is shed immediately with
// ErrQueueFull. Shedding at admission keeps a saturated server
// responsive — rejecting a request costs microseconds, queueing it
// unboundedly costs memory and every client's latency. Every POST
// /optimize and every /optimize/batch entry that L1 misses takes its
// slot here (resolveMiss), so a batch shares the server-wide budget
// instead of adding its own.
type Admission struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

// NewAdmission builds a controller with the given bounds (minimums of
// one slot and zero queue are enforced).
func NewAdmission(maxInFlight, maxQueue int) *Admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
	}
}

// Acquire obtains a work slot, waiting in the bounded queue when none
// is free. It returns ErrQueueFull when the queue is also full, or
// ctx.Err() when the caller gives up first. A nil return must be
// paired with exactly one Release.
func (a *Admission) Acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	// No free slot: take a queue position or shed. The counter check
	// admits at most maxQueue waiters; transient over-admission is
	// impossible because the position is reserved (Add) before the
	// bound is compared.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return ErrQueueFull
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot obtained by a successful Acquire.
func (a *Admission) Release() { <-a.slots }

// Depth reports the current load: requests holding a slot and requests
// waiting for one. Both are instantaneous snapshots.
func (a *Admission) Depth() (active, queued int) {
	return len(a.slots), int(a.queued.Load())
}

// Bounds reports the configured limits.
func (a *Admission) Bounds() (maxInFlight, maxQueue int) {
	return cap(a.slots), int(a.maxQueue)
}
