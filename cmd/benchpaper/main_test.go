package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pdce/internal/bench"
	"pdce/internal/obs"
)

func TestMain(m *testing.M) {
	// The run-loop normally loads the matrix in main(); tests exercise
	// experiment functions directly, so install the defaults here.
	matrix = bench.DefaultMatrix()
	cur = matrix.Exp("F")
	os.Exit(m.Run())
}

func TestFitExponent(t *testing.T) {
	// Perfect quadratic data must fit exponent 2.
	ns := []int{64, 128, 256, 512}
	var ts []time.Duration
	for _, n := range ns {
		ts = append(ts, time.Duration(n*n)*time.Nanosecond)
	}
	if k := fitExponent(ns, ts); math.Abs(k-2) > 1e-9 {
		t.Errorf("quadratic fit = %f", k)
	}
	// Linear data fits exponent 1.
	ts = ts[:0]
	for _, n := range ns {
		ts = append(ts, time.Duration(1000*n)*time.Nanosecond)
	}
	if k := fitExponent(ns, ts); math.Abs(k-1) > 1e-9 {
		t.Errorf("linear fit = %f", k)
	}
}

// TestRunHistoryAppend runs the figure experiment with recording on and
// checks the resulting run — records, aggregates, run header — appends
// to and round-trips through the BENCH_paper.json history.
func TestRunHistoryAppend(t *testing.T) {
	oldRecords, oldCur, oldRep := records, cur, curRep
	defer func() { records, cur, curRep = oldRecords, oldCur, oldRep }()
	records = nil
	cur = matrix.Exp("F")
	curRep = 0

	oldStdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	err := expFigures()
	os.Stdout = oldStdout
	if err != nil {
		t.Fatal(err)
	}

	run := buildRun("test-run", nil)
	if run.Kind != "full" || run.RunID != "test-run" {
		t.Fatalf("bad run header %+v", run)
	}
	if len(run.Records) == 0 {
		t.Fatal("empty records")
	}
	if len(run.Aggregates) == 0 {
		t.Fatal("no aggregates")
	}
	if run.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", run.GOMAXPROCS)
	}
	if len(run.Exps) != 1 || run.Exps[0] != "F" {
		t.Errorf("experiments = %v", run.Exps)
	}
	for _, r := range run.Records {
		if r.Exp != "F" || r.Name == "" {
			t.Fatalf("bad record %+v", r)
		}
		if r.Metrics["ok"] != 1 {
			t.Errorf("figure %s does not match the paper in the report", r.Name)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := obs.AppendBenchRun(path, run); err != nil {
		t.Fatal(err)
	}
	h, err := obs.LoadBenchHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != obs.BenchSchemaVersion || len(h.Runs) != 1 {
		t.Fatalf("history schema=%d runs=%d", h.Schema, len(h.Runs))
	}
	got := h.Runs[0]
	if got.RunID != "test-run" || len(got.Records) != len(run.Records) {
		t.Fatalf("round-trip lost records: %d != %d", len(got.Records), len(run.Records))
	}
	if st, ok := got.Stat("F", got.Records[0].Name, got.Records[0].N, "ok"); !ok || st.Median != 1 {
		t.Errorf("Stat(ok) = %+v, %v", st, ok)
	}
}

func TestSizesQuickSubset(t *testing.T) {
	oldQuick, oldCur := *quick, cur
	defer func() { *quick, cur = oldQuick, oldCur }()
	cur = matrix.Exp("C1")
	*quick = true
	qs := sizes()
	*quick = false
	full := sizes()
	if len(qs) >= len(full) {
		t.Error("quick sweep not smaller than full sweep")
	}
	inFull := map[int]bool{}
	for _, n := range full {
		inFull[n] = true
	}
	for _, n := range qs {
		if !inFull[n] {
			t.Errorf("quick size %d not in full sweep", n)
		}
	}
}

// TestExpSelection resolves -exp: "all" selects every registered
// experiment, a list is case-insensitive, and an unknown id is refused.
func TestExpSelection(t *testing.T) {
	oldExp := *expFlag
	defer func() { *expFlag = oldExp }()

	*expFlag = "all"
	want, err := selected()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(registry()) {
		t.Errorf("all selected %d experiments, registry has %d", len(want), len(registry()))
	}

	*expFlag = "c1, c9"
	want, err = selected()
	if err != nil {
		t.Fatal(err)
	}
	if !want["C1"] || !want["C9"] || len(want) != 2 {
		t.Errorf("case-insensitive list selection = %v", want)
	}

	*expFlag = "C99"
	if _, err := selected(); err == nil {
		t.Error("unknown experiment id accepted")
	}
}
