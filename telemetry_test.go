package pdce_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"pdce"
)

func mustParseFile(t *testing.T, path string) *pdce.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdce.ParseSource(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTelemetryOptIn pins the opt-in contract: no collection without
// the option, populated solver metrics with it, for both modes. (The
// reference driver's telemetry is pinned in internal/core.)
func TestTelemetryOptIn(t *testing.T) {
	p := mustParseFile(t, "testdata/corpus/stats.while")

	_, st, err := p.Optimize(pdce.Options{Mode: pdce.Dead})
	if err != nil {
		t.Fatal(err)
	}
	if st.Telemetry != nil {
		t.Fatal("telemetry collected without opting in")
	}

	for _, tc := range []struct {
		name string
		opts pdce.Options
	}{
		{"pde-incremental", pdce.Options{Mode: pdce.Dead, Telemetry: true}},
		{"pfe-incremental", pdce.Options{Mode: pdce.Faint, Telemetry: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, st, err := p.Optimize(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tel := st.Telemetry
			if tel == nil {
				t.Fatal("no telemetry despite Options.Telemetry")
			}
			if tel.Delay.Solves == 0 || tel.Delay.NodeVisits == 0 {
				t.Errorf("delay metrics empty: %+v", tel.Delay)
			}
			if tc.opts.Mode == pdce.Dead {
				if tel.Dead.Solves == 0 {
					t.Errorf("dead metrics empty: %+v", tel.Dead)
				}
				if tel.Faint.Solves != 0 {
					t.Errorf("pde run collected faint metrics: %+v", tel.Faint)
				}
			} else {
				// The faint analysis runs on the block-level engine;
				// only the reference driver's slotwise solver
				// counts slot updates.
				if tel.Faint.Solves == 0 || tel.Faint.NodeVisits == 0 {
					t.Errorf("faint metrics empty: %+v", tel.Faint)
				}
				if tel.Faint.SlotUpdates != 0 {
					t.Errorf("incremental pfe ran the slotwise solver: %+v", tel.Faint)
				}
			}
			if r := tel.Delay.ReuseRate; r < 0 || r > 1 {
				t.Errorf("reuse rate %v out of [0,1]", r)
			}
			if len(tel.Events) != 0 {
				t.Errorf("tracing off but %d events recorded", len(tel.Events))
			}
		})
	}
}

// TestTelemetryIncrementalReuse pins the headline metric: on a
// multi-round program the incremental driver's later delay and
// elimination solves seed only the affected region, so the accumulated
// reuse rate is positive — for the faint analysis as for the dead one.
// (The reference driver's zero reuse is pinned in internal/core.)
func TestTelemetryIncrementalReuse(t *testing.T) {
	p := mustParseFile(t, "testdata/corpus/stats.while")

	_, inc, err := p.Optimize(pdce.Options{Mode: pdce.Dead, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Rounds < 2 {
		t.Fatalf("need a multi-round program, got %d rounds", inc.Rounds)
	}
	if r := inc.Telemetry.Delay.ReuseRate; r <= 0 {
		t.Errorf("incremental delay reuse rate = %v, want > 0", r)
	}
	if got := inc.Telemetry.Delay.IncrementalSolves; got == 0 {
		t.Error("incremental driver reports no incremental solves")
	}

	_, fst, err := p.Optimize(pdce.Options{Mode: pdce.Faint, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := fst.Telemetry.Faint.IncrementalSolves; got == 0 {
		t.Errorf("pfe reports no incremental faint solves: %+v", fst.Telemetry.Faint)
	}
	if r := fst.Telemetry.Faint.ReuseRate; r <= 0 {
		t.Errorf("incremental faint reuse rate = %v, want > 0", r)
	}
}

// TestWorkGolden pins the driver's work on TestFormatGolden's programs,
// in pde and pfe: the rounds, and for each analysis the mode runs its
// solves, full solves, node visits and worklist pushes. The counts are
// deterministic, so an extra solve, a lost incremental re-seed or a
// round more or less moves a line even where the output stays the same.
// The runs are traced, and each line also holds the count of every
// provenance event kind and the SHA-256 of the JSON event stream, so a
// rewrite that keeps the output but drops, adds or reorders an event
// moves it too. A change that means to move them replaces
// testdata/work.golden with the lines this test prints.
func TestWorkGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/work.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	work := func(name string, s pdce.SolverMetrics) string {
		return fmt.Sprintf(" %s solves %d full %d visits %d pushes %d",
			name, s.Solves, s.FullSolves, s.NodeVisits, s.WorklistPushes)
	}
	var got []string
	for seed := 0; seed < goldenPrograms; seed++ {
		p := goldenProgram(seed)
		for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
			_, st, err := p.Optimize(pdce.Options{Mode: mode, Trace: true})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode, err)
			}
			line := fmt.Sprintf("seed %d %s rounds %d", seed, mode, st.Rounds) + work("delay", st.Telemetry.Delay)
			if mode == pdce.Dead {
				line += work("dead", st.Telemetry.Dead)
			} else {
				line += work("faint", st.Telemetry.Faint)
			}
			got = append(got, line+events(t, st.Telemetry.Events))
		}
	}
	for i, line := range got {
		if i >= len(want) || line != want[i] {
			t.Errorf("driver work moved; new line:\n%s", line)
		}
	}
	if len(want) > len(got) {
		t.Errorf("golden file has %d lines, %d computed", len(want), len(got))
	}
}

// events renders a traced run's provenance stream for TestWorkGolden:
// the count of each event kind, then the SHA-256 of the stream's JSON.
func events(t *testing.T, evs []pdce.TraceEvent) string {
	t.Helper()
	count := map[string]int{}
	for _, ev := range evs {
		count[ev.Kind]++
	}
	var sb strings.Builder
	for _, kind := range []string{pdce.EventSplitEdge, pdce.EventEliminate, pdce.EventSinkRemove,
		pdce.EventInsertEntry, pdce.EventInsertExit, pdce.EventFuse} {
		fmt.Fprintf(&sb, " %s %d", kind, count[kind])
	}
	js, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, " events-sha256 %x", sha256.Sum256(js))
	return sb.String()
}

// TestProvenanceSinkThenEliminate is the acceptance walkthrough: in
// stats.while the loop's sq accumulation is needed on only one exit, so
// the fixpoint sinks it out of the loop body and then eliminates the
// copy on the branch that never uses it. The trace must record that
// journey in order.
func TestProvenanceSinkThenEliminate(t *testing.T) {
	p := mustParseFile(t, "testdata/corpus/stats.while")
	_, st, err := p.Optimize(pdce.Options{Mode: pdce.Dead, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Telemetry == nil || len(st.Telemetry.Events) == 0 {
		t.Fatal("traced run recorded no events")
	}

	// Seq numbers are dense stream order.
	for i, ev := range st.Telemetry.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	chain := pdce.Explain(st.Telemetry, "sq")
	if len(chain) == 0 {
		t.Fatal("no provenance for sq")
	}
	var sunk, inserted, eliminated bool
	var sinkSeq, elimSeq int
	for _, ev := range chain {
		switch ev.Kind {
		case pdce.EventSinkRemove:
			sunk, sinkSeq = true, ev.Seq
		case pdce.EventInsertEntry, pdce.EventInsertExit:
			inserted = true
		case pdce.EventEliminate:
			eliminated, elimSeq = true, ev.Seq
			if ev.Analysis != "dead" {
				t.Errorf("elimination attributed to %q, want dead", ev.Analysis)
			}
		}
	}
	if !sunk || !inserted || !eliminated {
		t.Fatalf("journey incomplete: sunk=%v inserted=%v eliminated=%v\n%s",
			sunk, inserted, eliminated, pdce.FormatExplain("sq", chain))
	}
	if elimSeq <= sinkSeq {
		t.Errorf("elimination (seq %d) precedes sinking (seq %d)", elimSeq, sinkSeq)
	}

	out := pdce.FormatExplain("sq", chain)
	for _, want := range []string{"provenance of sq", "removed from block", "eliminated"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatExplain output missing %q:\n%s", want, out)
		}
	}

	// A variable the optimizer never touched explains to the empty
	// chain with a helpful message.
	if got := pdce.Explain(st.Telemetry, "nosuchvar"); got != nil {
		t.Errorf("Explain(nosuchvar) = %v", got)
	}
	if msg := pdce.FormatExplain("nosuchvar", nil); !strings.Contains(msg, "no provenance events") {
		t.Errorf("empty-chain message = %q", msg)
	}
	if got := pdce.Explain(nil, "sq"); got != nil {
		t.Errorf("Explain(nil telemetry) = %v", got)
	}
}

// TestObserveOncePerPhase pins the Observe contract: every round fires
// exactly one eliminate and one sink event, in that order, with
// contiguous 1-based round numbers. (The reference driver's Observe
// contract is pinned in internal/core.)
func TestObserveOncePerPhase(t *testing.T) {
	p := mustParseFile(t, "testdata/corpus/stats.while")
	t.Run("incremental", func(t *testing.T) {
		type key struct {
			round int
			phase string
		}
		var order []key
		seen := map[key]int{}
		_, st, err := p.Optimize(pdce.Options{
			Mode: pdce.Dead,
			Observe: func(round int, phase string, changed bool, snapshot string) {
				k := key{round, phase}
				seen[k]++
				order = append(order, k)
				if snapshot == "" {
					t.Error("empty snapshot")
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds == 0 {
			t.Fatal("no rounds")
		}
		if len(order) != 2*st.Rounds {
			t.Fatalf("%d events for %d rounds, want %d", len(order), st.Rounds, 2*st.Rounds)
		}
		for r := 1; r <= st.Rounds; r++ {
			e, s := key{r, "eliminate"}, key{r, "sink"}
			if seen[e] != 1 || seen[s] != 1 {
				t.Errorf("round %d: eliminate seen %d times, sink %d times", r, seen[e], seen[s])
			}
			if order[2*(r-1)] != e || order[2*(r-1)+1] != s {
				t.Errorf("round %d out of order: %v then %v", r, order[2*(r-1)], order[2*(r-1)+1])
			}
		}
	})
}

// batchMarkerProgram builds a partially dead program whose every
// snapshot and trace event carries a unique marker variable, so events
// from concurrent runs can be attributed to their program.
func batchMarkerProgram(t *testing.T, i int) *pdce.Program {
	t.Helper()
	src := fmt.Sprintf(`
qq%d := a + b
if * {
    qq%d := c
}
out(qq%d + mk%d)
`, i, i, i, i)
	p, err := pdce.ParseSource(fmt.Sprintf("marker%d", i), src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOptimizeAllObservability runs a concurrent batch with per-job
// tracing and a shared Observe callback. Per-job collectors must stay
// isolated (each telemetry stream mentions only its own variables),
// and the shared Observe stream — interleaved across programs — must
// still be complete: exactly one eliminate and one sink notification
// per round per program. Run under -race this also exercises the
// concurrency safety of the whole telemetry path.
func TestOptimizeAllObservability(t *testing.T) {
	const n = 8
	programs := make([]*pdce.Program, n)
	for i := range programs {
		programs[i] = batchMarkerProgram(t, i)
	}

	var mu sync.Mutex
	observed := map[int]int{} // program index -> events seen
	var tk pdce.BatchTracker
	results, metrics := pdce.OptimizeAllObserved(programs, pdce.Options{
		Mode:  pdce.Dead,
		Trace: true,
		Observe: func(round int, phase string, changed bool, snapshot string) {
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < n; i++ {
				if strings.Contains(snapshot, fmt.Sprintf("mk%d", i)) {
					observed[i]++
					return
				}
			}
			t.Error("snapshot attributable to no program")
		},
	}, 4, &tk)

	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("program %d: %v", i, r.Err)
		}
		tel := r.Stats.Telemetry
		if tel == nil || len(tel.Events) == 0 {
			t.Fatalf("program %d: no trace", i)
		}
		marker := fmt.Sprintf("qq%d", i)
		for _, ev := range tel.Events {
			if ev.Var != "" && ev.Var != marker {
				t.Errorf("program %d: event for foreign variable %q (collector shared across jobs?)", i, ev.Var)
			}
		}
		if got := observed[i]; got != 2*r.Stats.Rounds {
			t.Errorf("program %d: %d observe events for %d rounds", i, got, r.Stats.Rounds)
		}
		if r.Duration <= 0 || r.Worker < 0 {
			t.Errorf("program %d: duration/worker not stamped: %v/%d", i, r.Duration, r.Worker)
		}
	}

	if metrics.Jobs != n || metrics.Failed != 0 {
		t.Errorf("batch metrics = %+v", metrics)
	}
	if metrics.P95NS < metrics.P50NS || metrics.P50NS <= 0 {
		t.Errorf("latency percentiles p50=%d p95=%d", metrics.P50NS, metrics.P95NS)
	}
	p := tk.Snapshot()
	if p.Total != n || p.Done != n || p.Failed != 0 {
		t.Errorf("tracker = %+v", p)
	}
}

// TestReportJSONRoundTrip pins the -metrics-json payload: a traced
// run's Report marshals, round-trips losslessly, and matches the
// golden schema.
func TestReportJSONRoundTrip(t *testing.T) {
	p := mustParseFile(t, "testdata/corpus/stats.while")
	_, st, err := p.Optimize(pdce.Options{Mode: pdce.Dead, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := pdce.MakeReport(p.Name(), pdce.Dead, st, 0, nil)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back pdce.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != rep.Name || back.Mode != "pde" || !back.OK {
		t.Errorf("round trip header mismatch: %+v", back)
	}
	if back.Stats.Telemetry == nil ||
		len(back.Stats.Telemetry.Events) != len(st.Telemetry.Events) {
		t.Error("telemetry lost in round trip")
	}
	checkSchema(t, "report", data, reportSchema)
}
