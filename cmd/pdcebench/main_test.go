package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload-table row so a run takes well under a second.
func tiny(w workload) workload {
	w.programs, w.stmts, w.warmup = 3, 40, 2
	return w
}

func tinyConfig(t *testing.T, traced bool) runConfig {
	return runConfig{
		seed:      7,
		duration:  50 * time.Millisecond,
		traced:    traced,
		setups:    2,
		checkRuns: 2,
		spansDir:  t.TempDir(),
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricPrinted runs every workload of the table, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed
// on its own line and in the final report, with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the table %q", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, traced := range []bool{false, true} {
		want := b.EndToEnd
		if traced {
			want = b.PerLayer
		}
		for _, w := range workloads {
			var out bytes.Buffer
			if status := runOne(&out, tiny(w), tinyConfig(t, traced)); status != 0 {
				t.Fatalf("%s traced=%v: exit status %d\n%s", w.name, traced, status, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s: last line is not the report: %v", w.name, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: report %+v", w.name, traced, rep)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: report has %d metrics, BENCHMARK.json %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: report metric %s = %+v, want a number in %s", w.name, traced, m.Name, got, m.Unit)
				}
				prefix, suffix := w.name+" "+m.Name+" ", " "+m.Unit
				found := false
				for _, l := range lines {
					found = found || strings.HasPrefix(l, prefix) && strings.HasSuffix(l, suffix)
				}
				if !found {
					t.Errorf("%s traced=%v: no line %q...%q", w.name, traced, prefix, suffix)
				}
			}
		}
	}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	w := tiny(workloads[0])
	a, b, c := digest(generate(w, 1)), digest(generate(w, 1)), digest(generate(w, 2))
	if a != b {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same inputs: %s", a)
	}
}

func TestNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := nearestRank(v, c.p); got != c.want {
			t.Errorf("p%d of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{3, 7, 9}, 50); got != 7 {
		t.Errorf("p50 of {3,7,9} = %g, want 7", got)
	}
	if got := nearestRank([]float64{3, 7, 9}, 99); got != 9 {
		t.Errorf("p99 of {3,7,9} = %g, want 9", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(v, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestMeasureBest checks that a program's latency is the best of its
// right answers, that a program with none is left out, and that the
// reference kernel was timed.
func TestMeasureBest(t *testing.T) {
	m := startMeasure(3)
	m.done(0, 5*time.Millisecond, true)
	m.done(0, 3*time.Millisecond, true)
	m.done(0, 1*time.Millisecond, false)
	m.done(1, 4*time.Millisecond, true)
	m.done(2, 2*time.Millisecond, false)
	var r result
	m.stop(&r)
	if want := []float64{3, 4}; len(r.best) != 2 || r.best[0] != want[0] || r.best[1] != want[1] {
		t.Errorf("best = %v, want %v", r.best, want)
	}
	if r.refMs <= 0 {
		t.Errorf("reference kernel best = %g ms, want a time", r.refMs)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"unsorted", []interval{{150, 170}, {110, 120}, {115, 155}}, 40},
		{"clipped to the parent", []interval{{50, 120}, {180, 250}}, 60},
		{"outside the parent", []interval{{10, 20}, {300, 400}}, 100},
		{"covering all", []interval{{100, 200}, {100, 150}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestWrongOutputCounted injects wrong output into a library and a
// serving workload and checks that the run reports it as a failure.
func TestWrongOutputCounted(t *testing.T) {
	// One repeated result differs from the program's first result.
	calls := 0
	cfg := tinyConfig(t, false)
	cfg.tamper = func(s string) string {
		calls++
		if calls == 3 {
			return s + "\n"
		}
		return s
	}
	r, _, err := runWorkload(tiny(workloads[0]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("solve: %d failures for one differing repeat, want 1", r.failed)
	}

	// Every served program differs from the library's.
	cfg = tinyConfig(t, false)
	cfg.tamper = func(s string) string { return s + "x" }
	r, _, err = runWorkload(tiny(workloads[2]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failed != r.attempted-tiny(workloads[2]).programs {
		t.Errorf("serve: %d of %d operations failed, want every request", r.failed, r.attempted)
	}
	if rep := buildReport(r, nil, cfg); rep.Correct {
		t.Error("serve: report says correct despite wrong output")
	}
}
