// Package obs is the optimizer's observability layer: solver metrics,
// provenance traces, and the serializable Telemetry snapshot that
// core.Stats carries back to callers.
//
// The design constraint is that telemetry must cost nothing when it is
// off. A nil *Collector hands out nil sinks, every method of a nil
// *Trace does nothing, and a solver holding a nil *SolverMetrics skips
// its one add per solve, so the hot path of an uninstrumented run
// differs from the pre-telemetry code by a branch per collection
// point. When a collector is installed, counters are atomic (the batch
// pipeline shares option structs across worker goroutines) and trace
// appends take a mutex (events from one run are sequential anyway; the
// lock is for OptimizeAll callers that share a collector, which is
// legal but attributes events to one stream).
//
// Only the solve-path Collector and Trace and the request-trace layer
// (Span, TraceStore) are nil-safe. Every counter, the solvers' and the
// serving tiers' (ServerStats, StoreStats, ClientStats, and the
// queue's and L1 cache's sections) alike, is declared once, as a Count
// field of the struct its report encodes, and read with Freeze.
//
// Three layers:
//
//   - SolverMetrics — per-analysis counters (node visits, worklist
//     pushes, solves by kind, incremental-reuse seeding, bit-vector
//     ops, slot updates): the Count fields of SolverSnapshot, which
//     internal/dataflow's Solver and the slotwise faint reference in
//     internal/analysis add each finished solve to.
//   - Trace — the provenance event stream: every eliminated
//     assignment, every sinking-candidate removal, every materialized
//     instance, recorded with round, phase, pattern, and block, fed by
//     internal/core.
//   - Telemetry — the plain, JSON-taggable snapshot of both, attached
//     to core.Stats at the end of a run and surfaced through
//     pdce.Report.
package obs

// SolverMetrics accumulates the cost counters of one analysis (delay,
// dead, or faint) across a whole driver run: the Count fields of its
// embedded SolverSnapshot, added to in place (m.NodeVisits.Add(n)) as
// each solve finishes. It is safe for concurrent use.
type SolverMetrics struct {
	SolverSnapshot
}

// Snapshot freezes the counters and computes the reuse rate.
func (m *SolverMetrics) Snapshot() SolverSnapshot {
	s := Freeze(&m.SolverSnapshot)
	if s.SeedableNodes > 0 {
		s.ReuseRate = 1 - float64(s.SeededNodes)/float64(s.SeedableNodes)
	}
	return s
}

// SolverSnapshot is the frozen, JSON-serializable form of one
// analysis's SolverMetrics, and the declaration of its counters.
type SolverSnapshot struct {
	// Solves is the total number of Solve calls, split into
	// FullSolves (from scratch), IncrementalSolves (re-solves from
	// the previous solution), and CacheHits (answered from the cached previous
	// solution without touching the worklist). CancelledSolves counts
	// solves the watchdog interrupted; their partial results were
	// discarded.
	Solves            Count `json:"solves"`
	FullSolves        Count `json:"full_solves"`
	IncrementalSolves Count `json:"incremental_solves"`
	CacheHits         Count `json:"cache_hits"`
	CancelledSolves   Count `json:"cancelled_solves"`

	// NodeVisits counts block transfer evaluations, WorklistPushes
	// worklist insertions (seeds plus requeues). Passes accumulates
	// the priority worklist's sweep counts (a sweep is one
	// monotone front through the solve order; RPO keeps this at
	// O(loop nesting) on reducible graphs), and MaxWorklistDepth is
	// the deepest any solve's worklist got — together they attribute
	// RPO-vs-FIFO ordering gains. SeededNodes / SeedableNodes
	// accumulate each solve's initial worklist against the graph
	// size (a cache hit adds to neither); ReuseRate = 1 -
	// seeded/seedable is the fraction of node solutions carried over
	// unrecomputed — 0 for a run of full solves, approaching 1 when
	// incremental re-seeding pays.
	NodeVisits       Count   `json:"node_visits"`
	WorklistPushes   Count   `json:"worklist_pushes"`
	Passes           Count   `json:"passes"`
	MaxWorklistDepth Count   `json:"max_worklist_depth"`
	SeededNodes      Count   `json:"seeded_nodes"`
	SeedableNodes    Count   `json:"seedable_nodes"`
	ReuseRate        float64 `json:"reuse_rate"`

	// VectorOps counts bulk bit-vector operations (meets, transfer
	// copies, change tests) performed by the block-level solver.
	VectorOps Count `json:"vector_ops"`

	// SlotUpdates counts slot processings of the slotwise faint
	// solver — the quantity Section 6.1.2 bounds by O(i·v). Only the
	// from-scratch reference driver runs that solver.
	SlotUpdates Count `json:"slot_updates"`
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
