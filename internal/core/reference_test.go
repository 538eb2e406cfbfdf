package core_test

import (
	"os"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/obs"
	"pdce/internal/parser"
)

// statsProgram parses the corpus program the telemetry tests share: a
// multi-round pde run whose loop accumulation sinks and then dies.
func statsProgram(t *testing.T) *cfg.Graph {
	t.Helper()
	const path = "../../testdata/corpus/stats.while"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parser.ParseSource(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestReferenceDriverTelemetry pins the reference driver's telemetry:
// a collector receives populated solver metrics in both modes, and
// since the driver rebuilds every analysis each phase, every solve is
// a full one and the reuse rate is zero.
func TestReferenceDriverTelemetry(t *testing.T) {
	g := statsProgram(t)
	for _, tc := range []struct {
		name string
		mode core.Mode
	}{{"pde", core.ModeDead}, {"pfe", core.ModeFaint}} {
		t.Run(tc.name, func(t *testing.T) {
			_, st, err := core.Transform(g, core.Options{
				Mode:          tc.mode,
				NoIncremental: true,
				Collector:     obs.NewCollector(false),
			})
			if err != nil {
				t.Fatal(err)
			}
			tel := st.Telemetry
			if tel == nil {
				t.Fatal("no telemetry despite a collector")
			}
			if st.Rounds < 2 {
				t.Fatalf("need a multi-round program, got %d rounds", st.Rounds)
			}
			if tel.Delay.Solves == 0 || tel.Delay.NodeVisits == 0 {
				t.Errorf("delay metrics empty: %+v", tel.Delay)
			}
			if tc.mode == core.ModeDead {
				if tel.Dead.Solves == 0 {
					t.Errorf("dead metrics empty: %+v", tel.Dead)
				}
				if tel.Faint.Solves != 0 {
					t.Errorf("pde run collected faint metrics: %+v", tel.Faint)
				}
			} else if tel.Faint.Solves == 0 || tel.Faint.SlotUpdates == 0 {
				t.Errorf("faint metrics empty: %+v", tel.Faint)
			}
			if r := tel.Delay.ReuseRate; r != 0 {
				t.Errorf("reference delay reuse rate = %v, want 0", r)
			}
			if got := tel.Delay.IncrementalSolves; got != 0 {
				t.Errorf("reference driver reports %d incremental solves", got)
			}
			if len(tel.Events) != 0 {
				t.Errorf("tracing off but %d events recorded", len(tel.Events))
			}
		})
	}
}

// TestReferenceObserveOncePerPhase pins the Observe contract for the
// reference driver: every round fires exactly one eliminate and one
// sink event, in that order, with contiguous 1-based round numbers.
func TestReferenceObserveOncePerPhase(t *testing.T) {
	g := statsProgram(t)
	type key struct {
		round int
		phase string
	}
	var order []key
	seen := map[key]int{}
	_, st, err := core.Transform(g, core.Options{
		Mode:          core.ModeDead,
		NoIncremental: true,
		Observe: func(ev core.PhaseEvent) {
			k := key{ev.Round, ev.Phase}
			seen[k]++
			order = append(order, k)
			if ev.Graph == nil {
				t.Error("event without a snapshot")
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
}
