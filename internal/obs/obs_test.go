package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestNilSafety pins the package's core contract: a nil collector
// hands out nil sinks, and every call on a nil trace is a no-op, never
// a panic — that is what lets the pipeline call unconditionally on the
// hot path. A solver given a nil sink collects nothing
// (TestSolverMetricsAccounting).
func TestNilSafety(t *testing.T) {
	var c *Collector
	if c.Snapshot() != nil {
		t.Error("nil collector snapshot should be nil")
	}
	if c.DelayMetrics() != nil || c.DeadMetrics() != nil || c.FaintMetrics() != nil || c.Tracer() != nil {
		t.Error("nil collector must hand out nil sinks")
	}

	var tr *Trace
	tr.BeginPhase(1, "eliminate", "dead")
	tr.Record(KindEliminate, "b1", "x", "x := a+b")
	tr.RecordDetail(KindSplitEdge, "S", "", "", "1->2")
	if tr.Events() != nil || tr.Len() != 0 {
		t.Error("nil trace must stay empty")
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

// TestTelemetryJSONRoundTrip pins that the snapshot serializes and
// round-trips losslessly — the contract behind -metrics-json.
func TestTelemetryJSONRoundTrip(t *testing.T) {
	c := NewCollector(true)
	d := c.DelayMetrics()
	d.Solves.Add(2)
	d.FullSolves.Add(1)
	d.IncrementalSolves.Add(1)
	d.NodeVisits.Add(12)
	d.MaxWorklistDepth.Max(10)
	d.SeededNodes.Add(11)
	d.SeedableNodes.Add(20)
	d.VectorOps.Add(39)
	c.DeadMetrics().CacheHits.Add(1)
	c.FaintMetrics().SlotUpdates.Add(50)
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
