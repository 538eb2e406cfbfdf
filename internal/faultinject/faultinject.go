// Package faultinject is the optimizer's fault-injection seam: a
// process-global hook consulted at a small number of instrumented
// points inside the solver, the driver's phases, and pdced's request
// path, cache and job queue. Production runs never install a hook, so
// the only cost is one atomic nil-check per site; tests install hooks
// that panic, stall, or deliberately miscompile to exercise the
// containment machinery (pdce.SafeOptimize's panic recovery, the
// fixpoint watchdog, and verified-mode rollback) under `go test -race`.
//
// The hook is intentionally a single global rather than a per-run
// option: faults in production come from anywhere — a corrupted
// pattern-table entry, a miscompiled dependency — and the containment
// layer must not rely on cooperative plumbing to see them. Keeping the
// seam global means the injected fault crosses the same API boundaries
// a real one would.
package faultinject

import "sync/atomic"

// Point identifies an instrumented site.
type Point string

// Instrumented sites. The payload passed to the hook is listed per
// point; hooks must treat it as shared state and synchronize any
// mutation themselves.
const (
	// SolverVisit fires on every node visit of the block-level
	// worklist solver. Payload: nil. Stalling here exercises the
	// watchdog mid-solve.
	SolverVisit Point = "dataflow/solver-visit"
	// EliminatePhase fires at the start of every elimination phase.
	// Payload: the working *cfg.Graph.
	EliminatePhase Point = "core/eliminate"
	// SinkPhase fires after every sinking phase has mutated the
	// graph, before the round's verification check. Payload: the
	// working *cfg.Graph — a hook that corrupts it simulates a
	// miscompile for verified mode to catch.
	SinkPhase Point = "core/sink"
	// ServerRequest fires inside each request the serving layer admits
	// (a POST /optimize or an /optimize/batch entry that L1 missed),
	// after the admission slot is held and before the optimizer runs.
	// Payload: the program name (string). Stalling here keeps the slot
	// busy, filling the queue behind it — the seam for
	// queue-saturation and graceful-drain tests.
	ServerRequest Point = "server/request"
	// ServerCacheLoad fires after a disk-spilled cache entry is read
	// back, before its checksum is verified. Payload: *[]byte (the
	// entry body) — a hook that flips bytes simulates on-disk
	// corruption, which the cache must detect, quarantine, and treat
	// as a miss rather than serve.
	ServerCacheLoad Point = "server/cache-load"
	// QueueAppend fires in the durable job queue's write-ahead log
	// immediately before one encoded record is written. Payload:
	// *[]byte (the framed record) — a hook that truncates the slice
	// simulates a torn write reaching only part of the record, and a
	// hook that panics simulates a crash mid-append.
	QueueAppend Point = "server/queue-append"
	// QueueFsync fires before the write-ahead log fsyncs an appended
	// record. Payload: *error — a hook that stores a non-nil error
	// simulates the fsync failing, which the queue must surface as a
	// failed (unacknowledged) submission, never a silently volatile
	// one.
	QueueFsync Point = "server/queue-fsync"
	// QueueRecover fires during write-ahead log replay for every
	// record read back, before its checksum is verified. Payload:
	// *[]byte (the record payload) — a hook that flips bytes simulates
	// on-disk corruption, which recovery must quarantine while
	// continuing to replay the records after it.
	QueueRecover Point = "server/queue-recover"
)

// Hook receives every fired point. It may panic (the containment layer
// must recover), sleep (the watchdog must expire), or mutate the
// payload (verified mode must roll back). It runs on optimizer
// goroutines, concurrently during batch runs, so it must be safe for
// concurrent use.
type Hook func(p Point, payload any)

var hook atomic.Pointer[Hook]

// Set installs h as the process-global hook (nil uninstalls) and
// returns a restore function reinstating the previous hook — use
// `defer faultinject.Set(h)()` in tests. Tests that install hooks must
// not run in parallel with each other.
func Set(h Hook) (restore func()) {
	var prev *Hook
	if h == nil {
		prev = hook.Swap(nil)
	} else {
		prev = hook.Swap(&h)
	}
	return func() { hook.Store(prev) }
}

// Enabled reports whether a hook is installed. Sites with non-trivial
// payload construction gate on it.
func Enabled() bool { return hook.Load() != nil }

// Fire consults the installed hook, if any. The fast path is one
// atomic load and a branch.
func Fire(p Point, payload any) {
	if h := hook.Load(); h != nil {
		(*h)(p, payload)
	}
}
