// Package obs is the optimizer's observability layer: solver metrics,
// provenance traces, and the serializable Telemetry snapshot that
// core.Stats carries back to callers.
//
// The design constraint is that telemetry must cost nothing when it is
// off. Every collection point in the pipeline goes through a nil-safe
// method on a pointer type from this package — a nil *Collector, nil
// *SolverMetrics, or nil *Trace turns the call into a single branch on
// the receiver — so the hot path of an uninstrumented run is identical
// to the pre-telemetry code. When a collector is installed, counters
// are atomic (the batch pipeline shares option structs across worker
// goroutines) and trace appends take a mutex (events from one run are
// sequential anyway; the lock is for OptimizeAll callers that share a
// collector, which is legal but attributes events to one stream).
//
// Only those solve-path collectors (Collector, SolverMetrics, Trace)
// and the request-trace layer (Span, TraceStore) are nil-safe. The
// serving tiers' counters (ServerStats, StoreStats, ClientStats, and
// the queue's and L1 cache's sections) are not: their owners always
// build them. Each such counter is declared once, as a Count field of
// the struct its /metrics section encodes, and read with Freeze.
//
// Three layers:
//
//   - SolverMetrics — per-analysis counters (node visits, worklist
//     pushes, solves by kind, incremental-reuse seeding, bit-vector
//     ops, slot updates) fed by internal/dataflow and
//     internal/analysis.
//   - Trace — the provenance event stream: every eliminated
//     assignment, every sinking-candidate removal, every materialized
//     instance, recorded with round, phase, pattern, and block, fed by
//     internal/core.
//   - Telemetry — the plain, JSON-taggable snapshot of both, attached
//     to core.Stats at the end of a run and surfaced through
//     pdce.Report.
package obs

import "sync/atomic"

// SolveKind classifies one fixpoint solve for the reuse accounting.
type SolveKind int

// Solve kinds.
const (
	// SolveFull is a from-scratch solve: every node re-initialized
	// to top and seeded.
	SolveFull SolveKind = iota
	// SolveIncremental is a re-solve seeded from a previous solution
	// plus a dirty set.
	SolveIncremental
)

// SolverMetrics accumulates the cost counters of one analysis (delay,
// dead, or faint) across a whole driver run. All methods are safe on a
// nil receiver (they do nothing) and safe for concurrent use.
type SolverMetrics struct {
	solves            atomic.Int64
	fullSolves        atomic.Int64
	incrementalSolves atomic.Int64
	cacheHits         atomic.Int64
	cancelled         atomic.Int64

	nodeVisits atomic.Int64
	pushes     atomic.Int64
	passes     atomic.Int64
	maxDepth   atomic.Int64
	seeded     atomic.Int64
	seedable   atomic.Int64
	vecOps     atomic.Int64

	slotUpdates atomic.Int64
}

// SolveCost carries the work counters of one completed fixpoint solve
// into RecordSolve.
type SolveCost struct {
	// Visits counts block transfer evaluations; Pushes worklist
	// insertions.
	Visits, Pushes int
	// Passes is the number of priority-order sweeps the worklist
	// needed to converge (1 on acyclic and most structured graphs);
	// MaxWorklistDepth the deepest the worklist ever got.
	Passes, MaxWorklistDepth int
	// Seeded/Seedable feed the incremental-reuse accounting: the
	// nodes placed on the initial worklist against the nodes the
	// solve could have seeded.
	Seeded, Seedable int
	// VecOps counts bulk bit-vector operations.
	VecOps int
	// Cancelled marks a watchdog-interrupted solve whose partial
	// result was discarded.
	Cancelled bool
}

// RecordSolve accounts one block-level fixpoint solve.
//
// Seeded/Seedable accumulate into the incremental-reuse hit rate: a
// full solve seeds everything (no reuse), an incremental solve seeds
// only the dirty nodes, the raised ones and their dependents (the rest
// of the previous solution was reused verbatim).
func (m *SolverMetrics) RecordSolve(kind SolveKind, c SolveCost) {
	if m == nil {
		return
	}
	m.solves.Add(1)
	if kind == SolveIncremental {
		m.incrementalSolves.Add(1)
	} else {
		m.fullSolves.Add(1)
	}
	if c.Cancelled {
		m.cancelled.Add(1)
	}
	m.nodeVisits.Add(int64(c.Visits))
	m.pushes.Add(int64(c.Pushes))
	m.passes.Add(int64(c.Passes))
	maxUpdate(&m.maxDepth, int64(c.MaxWorklistDepth))
	m.seeded.Add(int64(c.Seeded))
	m.seedable.Add(int64(c.Seedable))
	m.vecOps.Add(int64(c.VecOps))
}

// maxUpdate raises an atomic counter to v if v is larger.
func maxUpdate(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordCacheHit accounts a solve that was answered entirely from the
// cached previous solution (an empty dirty set): maximal reuse, zero
// work.
func (m *SolverMetrics) RecordCacheHit() {
	if m == nil {
		return
	}
	m.solves.Add(1)
	m.cacheHits.Add(1)
}

// RecordSlotSolve accounts one slotwise faint-variable solve, whose
// unit of work is the slot update rather than the block visit.
func (m *SolverMetrics) RecordSlotSolve(slotUpdates, pushes int) {
	if m == nil {
		return
	}
	m.solves.Add(1)
	m.fullSolves.Add(1)
	m.slotUpdates.Add(int64(slotUpdates))
	m.pushes.Add(int64(pushes))
}

// Snapshot freezes the counters into a plain serializable struct.
func (m *SolverMetrics) Snapshot() SolverSnapshot {
	if m == nil {
		return SolverSnapshot{}
	}
	s := SolverSnapshot{
		Solves:            m.solves.Load(),
		FullSolves:        m.fullSolves.Load(),
		IncrementalSolves: m.incrementalSolves.Load(),
		CacheHits:         m.cacheHits.Load(),
		CancelledSolves:   m.cancelled.Load(),
		NodeVisits:        m.nodeVisits.Load(),
		WorklistPushes:    m.pushes.Load(),
		Passes:            m.passes.Load(),
		MaxWorklistDepth:  m.maxDepth.Load(),
		SeededNodes:       m.seeded.Load(),
		SeedableNodes:     m.seedable.Load(),
		VectorOps:         m.vecOps.Load(),
		SlotUpdates:       m.slotUpdates.Load(),
	}
	if s.SeedableNodes > 0 {
		s.ReuseRate = 1 - float64(s.SeededNodes)/float64(s.SeedableNodes)
	}
	return s
}

// SolverSnapshot is the frozen, JSON-serializable form of one
// analysis's SolverMetrics.
type SolverSnapshot struct {
	// Solves is the total number of Solve calls, split into
	// FullSolves (from scratch), IncrementalSolves (re-solves from
	// the previous solution), and CacheHits (answered from the cached previous
	// solution without touching the worklist). CancelledSolves counts
	// solves the watchdog interrupted; their partial results were
	// discarded.
	Solves            int64 `json:"solves"`
	FullSolves        int64 `json:"full_solves"`
	IncrementalSolves int64 `json:"incremental_solves"`
	CacheHits         int64 `json:"cache_hits"`
	CancelledSolves   int64 `json:"cancelled_solves"`

	// NodeVisits counts block transfer evaluations, WorklistPushes
	// worklist insertions (seeds plus requeues). Passes accumulates
	// the priority worklist's sweep counts (a sweep is one
	// monotone front through the solve order; RPO keeps this at
	// O(loop nesting) on reducible graphs), and MaxWorklistDepth is
	// the deepest any solve's worklist got — together they attribute
	// RPO-vs-FIFO ordering gains. SeededNodes / SeedableNodes
	// accumulate each solve's initial worklist against the graph
	// size; ReuseRate = 1 - seeded/seedable is the fraction of node
	// solutions carried over unrecomputed — 0 for a run of full
	// solves, approaching 1 when incremental re-seeding pays.
	NodeVisits       int64   `json:"node_visits"`
	WorklistPushes   int64   `json:"worklist_pushes"`
	Passes           int64   `json:"passes"`
	MaxWorklistDepth int64   `json:"max_worklist_depth"`
	SeededNodes      int64   `json:"seeded_nodes"`
	SeedableNodes    int64   `json:"seedable_nodes"`
	ReuseRate        float64 `json:"reuse_rate"`

	// VectorOps counts bulk bit-vector operations (meets, transfer
	// copies, change tests) performed by the block-level solver.
	VectorOps int64 `json:"vector_ops"`

	// SlotUpdates counts slot processings of the slotwise faint
	// solver — the quantity Section 6.1.2 bounds by O(i·v). Only the
	// from-scratch reference driver runs that solver.
	SlotUpdates int64 `json:"slot_updates"`
}

// Telemetry is the serializable observability section of a run,
// attached to core.Stats when a Collector was installed.
type Telemetry struct {
	// Delay, Dead, and Faint are the per-analysis solver metrics.
	// Only the analyses the selected mode runs are populated (pde:
	// delay+dead, pfe: delay+faint).
	Delay SolverSnapshot `json:"delay"`
	Dead  SolverSnapshot `json:"dead"`
	Faint SolverSnapshot `json:"faint"`

	// Events is the provenance trace, present when tracing was on.
	Events []Event `json:"events,omitempty"`
}

// Collector is the root telemetry sink of one optimization run: one
// SolverMetrics per analysis and optional provenance tracing. A nil
// *Collector disables everything.
type Collector struct {
	Delay SolverMetrics
	Dead  SolverMetrics
	Faint SolverMetrics

	// Trace is the provenance event sink; nil leaves tracing off
	// while metrics still collect.
	Trace *Trace
}

// NewCollector returns a collector; with trace set it also records
// provenance events.
func NewCollector(trace bool) *Collector {
	c := &Collector{}
	if trace {
		c.Trace = &Trace{}
	}
	return c
}

// DelayMetrics returns the delayability metrics sink, nil on a nil
// collector.
func (c *Collector) DelayMetrics() *SolverMetrics {
	if c == nil {
		return nil
	}
	return &c.Delay
}

// DeadMetrics returns the dead-variable metrics sink, nil on a nil
// collector.
func (c *Collector) DeadMetrics() *SolverMetrics {
	if c == nil {
		return nil
	}
	return &c.Dead
}

// FaintMetrics returns the faint-variable metrics sink, nil on a nil
// collector.
func (c *Collector) FaintMetrics() *SolverMetrics {
	if c == nil {
		return nil
	}
	return &c.Faint
}

// Tracer returns the provenance sink, nil on a nil collector or when
// tracing is off.
func (c *Collector) Tracer() *Trace {
	if c == nil {
		return nil
	}
	return c.Trace
}

// Snapshot freezes the collector into the serializable Telemetry
// section.
func (c *Collector) Snapshot() *Telemetry {
	if c == nil {
		return nil
	}
	return &Telemetry{
		Delay:  c.Delay.Snapshot(),
		Dead:   c.Dead.Snapshot(),
		Faint:  c.Faint.Snapshot(),
		Events: c.Trace.Events(),
	}
}
