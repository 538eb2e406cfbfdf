package core_test

import (
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/progen"
)

// TestIncrementalMatchesReference pins down the incremental driver's
// exactness: across a spread of random programs (structured, loopy,
// dense, irreducible), both modes and three hot regions (none, and two
// arbitrary disconnected ones), the round-to-round reuse driver must
// produce byte-identical output text and identical run statistics to
// the from-scratch reference driver. 50 seeds x 4 shapes = 200
// programs per mode and region.
func TestIncrementalMatchesReference(t *testing.T) {
	graphs := randomPrograms(t, 50)
	regions := []struct {
		name string
		hot  core.HotPredicate
	}{
		{"all", nil},
		{"id%2", func(n *cfg.Node) bool { return n.ID%2 == 0 }},
		{"id%3", func(n *cfg.Node) bool { return n.ID%3 == 0 }},
	}
	for _, region := range regions {
		for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
			for _, g := range graphs {
				inc, incSt, err := core.Transform(g, core.Options{Mode: mode, Hot: region.hot})
				if err != nil {
					t.Fatalf("%s/%v/%s incremental: %v", g.Name, mode, region.name, err)
				}
				ref, refSt, err := core.Transform(g, core.Options{Mode: mode, Hot: region.hot, NoIncremental: true})
				if err != nil {
					t.Fatalf("%s/%v/%s reference: %v", g.Name, mode, region.name, err)
				}
				if got, want := inc.Format(), ref.Format(); got != want {
					t.Errorf("%s/%v/%s: incremental and reference outputs differ\nincremental:\n%s\nreference:\n%s",
						g.Name, mode, region.name, got, want)
					continue
				}
				if incSt.Rounds != refSt.Rounds ||
					incSt.Eliminated != refSt.Eliminated ||
					incSt.Inserted != refSt.Inserted ||
					incSt.SinkRemoved != refSt.SinkRemoved ||
					incSt.PeakStmts != refSt.PeakStmts {
					t.Errorf("%s/%v/%s: stats diverge: incremental %+v, reference %+v",
						g.Name, mode, region.name, incSt, refSt)
				}
			}
		}
	}
}

// TestIncrementalMatchesReferenceTruncated checks the equivalence also
// holds under a MaxRounds truncation (the drivers must agree on the
// intermediate program, not just the fixpoint).
func TestIncrementalMatchesReferenceTruncated(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		g := progen.Generate(progen.Params{Seed: int64(seed), Stmts: 60, Vars: 5, LoopProb: 0.2, BranchProb: 0.3})
		for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
			for _, rounds := range []int{1, 2} {
				inc, _, err := core.Transform(g, core.Options{Mode: mode, MaxRounds: rounds})
				if err != nil {
					t.Fatal(err)
				}
				ref, _, err := core.Transform(g, core.Options{Mode: mode, MaxRounds: rounds, NoIncremental: true})
				if err != nil {
					t.Fatal(err)
				}
				if inc.Format() != ref.Format() {
					t.Errorf("seed %d, %v, MaxRounds=%d: outputs differ\nincremental:\n%s\nreference:\n%s",
						seed, mode, rounds, inc.Format(), ref.Format())
				}
			}
		}
	}
}

// TestIncrementalObserveSnapshots checks that the per-phase snapshots
// of the two drivers agree — the incremental driver must not merely
// reach the same fixpoint but walk the same intermediate programs.
func TestIncrementalObserveSnapshots(t *testing.T) {
	for seed := 0; seed < 10; seed++ {
		g := progen.Generate(progen.Params{Seed: int64(seed), Stmts: 50, Vars: 4, BranchProb: 0.3})
		for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
			snap := func(noInc bool) []string {
				var out []string
				_, _, err := core.Transform(g, core.Options{
					Mode:          mode,
					NoIncremental: noInc,
					Observe: func(ev core.PhaseEvent) {
						out = append(out, ev.Phase+"\n"+ev.Graph.Format())
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			inc, ref := snap(false), snap(true)
			if len(inc) != len(ref) {
				t.Fatalf("seed %d, %v: phase counts differ: %d vs %d", seed, mode, len(inc), len(ref))
			}
			for i := range inc {
				if inc[i] != ref[i] {
					t.Errorf("seed %d, %v: phase %d snapshots differ\nincremental:\n%s\nreference:\n%s",
						seed, mode, i, inc[i], ref[i])
					break
				}
			}
		}
	}
}
