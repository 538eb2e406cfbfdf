package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestNilSafety pins the package's core contract: every collection
// call on a nil receiver is a no-op, never a panic — that is what lets
// the pipeline call unconditionally on the hot path.
func TestNilSafety(t *testing.T) {
	var c *Collector
	if c.Snapshot() != nil {
		t.Error("nil collector snapshot should be nil")
	}
	if c.DelayMetrics() != nil || c.DeadMetrics() != nil || c.FaintMetrics() != nil || c.Tracer() != nil {
		t.Error("nil collector must hand out nil sinks")
	}

	var m *SolverMetrics
	m.RecordSolve(SolveFull, SolveCost{Visits: 1, Pushes: 2, Seeded: 3, Seedable: 4, VecOps: 5})
	m.RecordCacheHit()
	m.RecordSlotSolve(1, 2)
	if got := m.Snapshot(); got != (SolverSnapshot{}) {
		t.Errorf("nil metrics snapshot = %+v, want zero", got)
	}

	var tr *Trace
	tr.BeginPhase(1, "eliminate", "dead")
	tr.Record(KindEliminate, "b1", "x", "x := a+b")
	tr.RecordDetail(KindSplitEdge, "S", "", "", "1->2")
	if tr.Events() != nil || tr.Len() != 0 {
		t.Error("nil trace must stay empty")
	}
}

func TestSolverMetricsAccounting(t *testing.T) {
	var m SolverMetrics
	// One full solve over 10 nodes, then an incremental one seeding 2
	// of 10, then a cache hit.
	m.RecordSolve(SolveFull, SolveCost{Visits: 10, Pushes: 12, Passes: 2, MaxWorklistDepth: 10, Seeded: 10, Seedable: 10, VecOps: 30})
	m.RecordSolve(SolveIncremental, SolveCost{Visits: 3, Pushes: 3, Passes: 1, MaxWorklistDepth: 3, Seeded: 2, Seedable: 10, VecOps: 9})
	m.RecordCacheHit()

	s := m.Snapshot()
	if s.Solves != 3 || s.FullSolves != 1 || s.IncrementalSolves != 1 || s.CacheHits != 1 {
		t.Errorf("solve split wrong: %+v", s)
	}
	if s.NodeVisits != 13 || s.WorklistPushes != 15 || s.VectorOps != 39 {
		t.Errorf("work counters wrong: %+v", s)
	}
	if s.Passes != 3 || s.MaxWorklistDepth != 10 {
		t.Errorf("pass/depth counters wrong: %+v", s)
	}
	// 12 of 20 seedable nodes seeded -> reuse rate 0.4.
	if s.SeededNodes != 12 || s.SeedableNodes != 20 {
		t.Errorf("seed counters wrong: %+v", s)
	}
	if got, want := s.ReuseRate, 0.4; got != want {
		t.Errorf("reuse rate = %v, want %v", got, want)
	}
}

func TestSolverMetricsCancelled(t *testing.T) {
	var m SolverMetrics
	m.RecordSolve(SolveFull, SolveCost{Visits: 5, Pushes: 5, Seeded: 5, Seedable: 5, Cancelled: true})
	s := m.Snapshot()
	if s.CancelledSolves != 1 {
		t.Errorf("cancelled = %d, want 1", s.CancelledSolves)
	}
}

// TestTraceOrderingAndContext checks that BeginPhase context stamps
// subsequent events and Seq numbers are dense and ordered.
func TestTraceOrderingAndContext(t *testing.T) {
	tr := &Trace{}
	tr.BeginPhase(0, "setup", "")
	tr.RecordDetail(KindSplitEdge, "S2,4", "", "", "2->4")
	tr.BeginPhase(1, "sink", "delay")
	tr.Record(KindSinkRemove, "2", "y", "y := a+b")
	tr.Record(KindInsertEntry, "4", "y", "y := a+b")
	tr.BeginPhase(2, "eliminate", "dead")
	tr.Record(KindEliminate, "4", "y", "y := a+b")

	evs := tr.Events()
	if len(evs) != 4 || tr.Len() != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	want := []struct {
		round             int
		phase, kind, anal string
	}{
		{0, "setup", KindSplitEdge, ""},
		{1, "sink", KindSinkRemove, "delay"},
		{1, "sink", KindInsertEntry, "delay"},
		{2, "eliminate", KindEliminate, "dead"},
	}
	for i, w := range want {
		ev := evs[i]
		if ev.Round != w.round || ev.Phase != w.phase || ev.Kind != w.kind || ev.Analysis != w.anal {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
	}

	// Events must return an isolated copy.
	evs[0].Block = "mutated"
	if tr.Events()[0].Block == "mutated" {
		t.Error("Events returned aliased storage")
	}
}

// TestTraceConcurrent exercises concurrent appends (run with -race).
func TestTraceConcurrent(t *testing.T) {
	tr := &Trace{}
	var wg sync.WaitGroup
	const writers, perWriter = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(KindEliminate, "b", "x", "x := 1")
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != writers*perWriter {
		t.Errorf("lost events: %d of %d", got, writers*perWriter)
	}
	seen := make(map[int]bool)
	for _, ev := range tr.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestCollectorConcurrent exercises the atomic counters under
// contention (run with -race).
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.DelayMetrics().RecordSolve(SolveIncremental, SolveCost{Visits: 1, Pushes: 1, Seeded: 1, Seedable: 2, VecOps: 1})
				c.DeadMetrics().RecordCacheHit()
				c.FaintMetrics().RecordSlotSolve(3, 1)
				c.Tracer().Record(KindSinkRemove, "b", "x", "x := 1")
			}
		}()
	}
	wg.Wait()
	tel := c.Snapshot()
	if tel.Delay.Solves != 400 || tel.Dead.CacheHits != 400 || tel.Faint.SlotUpdates != 1200 {
		t.Errorf("lost counter updates: %+v", tel)
	}
	if len(tel.Events) != 400 {
		t.Errorf("lost trace events: %d", len(tel.Events))
	}
}

// TestTelemetryJSONRoundTrip pins that the snapshot serializes and
// round-trips losslessly — the contract behind -metrics-json.
func TestTelemetryJSONRoundTrip(t *testing.T) {
	c := NewCollector(true)
	c.DelayMetrics().RecordSolve(SolveFull, SolveCost{Visits: 10, Pushes: 12, Passes: 1, MaxWorklistDepth: 10, Seeded: 10, Seedable: 10, VecOps: 33})
	c.DelayMetrics().RecordSolve(SolveIncremental, SolveCost{Visits: 2, Pushes: 2, Passes: 1, MaxWorklistDepth: 2, Seeded: 1, Seedable: 10, VecOps: 6})
	c.DeadMetrics().RecordCacheHit()
	c.FaintMetrics().RecordSlotSolve(50, 20)
	c.Tracer().BeginPhase(1, "eliminate", "dead")
	c.Tracer().Record(KindEliminate, "3", "x", "x := a+b")
	tel := c.Snapshot()

	data, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	var back Telemetry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*tel, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *tel)
	}
}
