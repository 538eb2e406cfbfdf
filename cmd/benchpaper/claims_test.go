package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdce/internal/bench"
	"pdce/internal/obs"
)

// clockMetrics move with the host's clock: the wall time of a point,
// the C1/C2 scaling exponent fitted to those times, and C2's pfe/pde
// time ratio. Every other metric of F and C1–C8 is fixed by the seeds.
var clockMetrics = map[string]bool{obs.BenchTimeMetric: true, "exponent": true, "ratio": true}

// TestPaperClaimsGolden pins every clock-free number that one quick
// repeat of F and C1–C8 records under the committed experiments.json:
// figure verdicts, rounds r, block counts, code growth w, savings
// against each baseline, eager-sinking violations, hoisting savings and
// liveness pressure. These numbers are the paper's measurable claims,
// so a change that moves one either fixes a bug or changes a claim;
// testdata/paper_claims.golden then takes the lines this test prints.
func TestPaperClaimsGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "paper_claims.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")

	m, err := bench.LoadMatrix("../../experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	oldMatrix, oldCur, oldRep, oldRecords, oldQuick := matrix, cur, curRep, records, *quick
	defer func() { matrix, cur, curRep, records, *quick = oldMatrix, oldCur, oldRep, oldRecords, oldQuick }()
	matrix, curRep, records, *quick = m, 0, nil, true

	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, e := range registry() {
		if e.id == "C9" {
			continue // every C9 number is a wall time or a ratio of two
		}
		cur = matrix.Exp(e.id)
		stdout := os.Stdout
		os.Stdout = devnull
		err := e.fn()
		os.Stdout = stdout
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
	}

	var got []string
	for _, a := range obs.AggregateBench(records) {
		if !clockMetrics[a.Metric] {
			got = append(got, fmt.Sprintf("%s %s n=%d %s %.10g", a.Exp, a.Name, a.N, a.Metric, a.Median))
		}
	}
	if len(got) != 119 {
		t.Errorf("recorded %d clock-free values, want 119", len(got))
	}
	for i, line := range got {
		if i >= len(want) || line != want[i] {
			t.Errorf("paper claim moved; new line:\n%s", line)
		}
	}
	if len(want) > len(got) {
		t.Errorf("golden file has %d lines, %d values recorded", len(want), len(got))
	}
}
