package obs

import (
	"path/filepath"
	"testing"
)

func TestAggregateBenchStats(t *testing.T) {
	points := []BenchPoint{
		{Exp: "C1", Name: "pde", N: 64, Rep: 0, NSPerOp: 100},
		{Exp: "C1", Name: "pde", N: 64, Rep: 1, NSPerOp: 300},
		{Exp: "C1", Name: "pde", N: 64, Rep: 2, NSPerOp: 200},
		{Exp: "C1", Name: "pde", N: 64, Rep: 3, NSPerOp: 900},
		{Exp: "C1", Name: "pde", N: 64, Rep: 4, NSPerOp: 250},
	}
	aggs := AggregateBench(points)
	if len(aggs) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(aggs))
	}
	a := aggs[0]
	if a.Metric != BenchTimeMetric || a.Count != 5 {
		t.Fatalf("bad aggregate %+v", a)
	}
	// Sorted: 100 200 250 300 900.
	if a.Median != 250 {
		t.Errorf("median = %v, want 250", a.Median)
	}
	if a.P95 != 900 {
		t.Errorf("p95 = %v, want 900 (nearest rank)", a.P95)
	}
	// Deviations from 250: 150 50 0 50 650 → sorted 0 50 50 150 650 → MAD 50.
	if a.MAD != 50 {
		t.Errorf("mad = %v, want 50", a.MAD)
	}
	if a.Min != 100 || a.Max != 900 {
		t.Errorf("min/max = %v/%v, want 100/900", a.Min, a.Max)
	}
}

// TestAggregateBenchOrder pins the deterministic ordering: series in
// first-appearance order, metrics sorted within a series.
func TestAggregateBenchOrder(t *testing.T) {
	points := []BenchPoint{
		{Exp: "C5", Name: "z-series", Rep: 0, Metrics: map[string]float64{"zz": 1, "aa": 2}},
		{Exp: "C5", Name: "a-series", Rep: 0, NSPerOp: 10, Metrics: map[string]float64{"mm": 3}},
		{Exp: "C5", Name: "z-series", Rep: 1, Metrics: map[string]float64{"zz": 1, "aa": 2}},
	}
	aggs := AggregateBench(points)
	var got []string
	for _, a := range aggs {
		got = append(got, a.Name+"/"+a.Metric)
	}
	want := []string{"z-series/aa", "z-series/zz", "a-series/mm", "a-series/ns_per_op"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAppendBenchRunGrowsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for i, id := range []string{"r1", "r2"} {
		run := BenchRun{RunID: id, Kind: "quick", Records: []BenchPoint{{Exp: "C1", Name: "pde", N: 64, NSPerOp: 7}}}
		if err := AppendBenchRun(path, run); err != nil {
			t.Fatal(err)
		}
		h, err := LoadBenchHistory(path)
		if err != nil {
			t.Fatal(err)
		}
		if h.Schema != BenchSchemaVersion || len(h.Runs) != i+1 || h.Runs[i].RunID != id {
			t.Fatalf("after appending %s: schema=%d runs=%+v", id, h.Schema, h.Runs)
		}
	}
}

// TestParseBenchHistoryRejectsOtherSchemas: only the current schema
// loads; a schema-less version-1 flat report is an error, not a
// migration.
func TestParseBenchHistoryRejectsOtherSchemas(t *testing.T) {
	for _, doc := range []string{
		`{"quick":false,"seeds":5,"gomaxprocs":1,"records":[{"exp":"C1","name":"pde","n":64,"ns_per_op":7}]}`,
		`{"schema":1,"runs":[]}`,
	} {
		if h, err := ParseBenchHistory([]byte(doc)); err == nil {
			t.Errorf("ParseBenchHistory(%s) = %+v, want an error", doc, h)
		}
	}
}

func TestLoadBenchHistoryMissing(t *testing.T) {
	h, err := LoadBenchHistory(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != BenchSchemaVersion || len(h.Runs) != 0 {
		t.Fatalf("missing file: %+v", h)
	}
}

func TestNewestSkipsMilestones(t *testing.T) {
	h := &BenchHistory{Schema: BenchSchemaVersion, Runs: []BenchRun{
		{RunID: "a", Kind: "full"},
		{RunID: "m", Kind: "milestone"},
	}}
	if got := h.Newest(nil); got == nil || got.RunID != "a" {
		t.Errorf("Newest(nil) = %+v, want run a", got)
	}
	if got := h.Newest(func(r *BenchRun) bool { return r.Kind == "milestone" }); got == nil || got.RunID != "m" {
		t.Errorf("Newest(milestone) = %+v, want run m", got)
	}
	if got := (&BenchHistory{}).Newest(nil); got != nil {
		t.Errorf("empty history Newest = %+v", got)
	}
}
