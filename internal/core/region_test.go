package core_test

import (
	"strings"
	"testing"

	"pdce/internal/analysis"
	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/progen"
	"pdce/internal/verify"
)

// hotSet builds a HotPredicate from labels.
func hotSet(labels ...string) core.HotPredicate {
	set := make(map[string]bool, len(labels))
	for _, l := range labels {
		set[l] = true
	}
	return func(n *cfg.Node) bool { return set[n.Label] }
}

// TestHotRegionFullEqualsUnrestricted: marking every block hot must
// reproduce the unrestricted result exactly.
func TestHotRegionFullEqualsUnrestricted(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 50, LoopProb: 0.15, BranchProb: 0.25})
		full, _, err := core.PDE(g)
		if err != nil {
			t.Fatal(err)
		}
		allHot, _, err := core.Transform(g, core.Options{
			Mode: core.ModeDead,
			Hot:  func(*cfg.Node) bool { return true },
		})
		if err != nil {
			t.Fatal(err)
		}
		if diffs := cfg.Diff(full, allHot); len(diffs) > 0 {
			t.Errorf("seed %d: all-hot differs from unrestricted:\n  %s",
				seed, strings.Join(diffs, "\n  "))
		}
	}
}

// TestHotRegionEmptyIsIdentity: with no hot blocks, the program is
// returned unchanged (modulo nothing — even synthetic split nodes are
// removed again).
func TestHotRegionEmptyIsIdentity(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 40})
		out, st, err := core.Transform(g, core.Options{
			Mode: core.ModeDead,
			Hot:  func(*cfg.Node) bool { return false },
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Eliminated != 0 || st.Inserted != 0 || st.SinkRemoved != 0 {
			t.Errorf("seed %d: empty region still transformed: %+v", seed, st)
		}
		if diffs := cfg.Diff(g, out); len(diffs) > 0 {
			t.Errorf("seed %d: program changed:\n  %s", seed, strings.Join(diffs, "\n  "))
		}
	}
}

// TestHotRegionPreservesSemantics: arbitrary regions never break the
// guarantees.
func TestHotRegionPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		params := progen.Params{Seed: seed, Stmts: 60, Vars: 5, LoopProb: 0.15, BranchProb: 0.25}
		if seed%4 == 0 {
			params.Irreducible = true
		}
		g := progen.Generate(params)
		// Region: every block whose ID is even — deliberately
		// arbitrary and disconnected.
		hot := func(n *cfg.Node) bool { return n.ID%2 == 0 }
		for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
			out, _, err := core.Transform(g, core.Options{Mode: mode, Hot: hot})
			if err != nil {
				t.Fatalf("seed %d/%v: %v", seed, mode, err)
			}
			rep := verify.CheckTransformed(g, out, verify.Options{Seeds: 24, Fuel: 512})
			if !rep.OK() {
				t.Errorf("seed %d/%v: %s", seed, mode, rep)
			}
		}
	}
}

// TestHotRegionColdBlocksUntouched: statements of cold blocks are
// byte-identical after the run.
func TestHotRegionColdBlocksUntouched(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 60, Vars: 5, BranchProb: 0.3})
		hot := func(n *cfg.Node) bool { return n.ID%3 == 0 }
		out, _, err := core.Transform(g, core.Options{Mode: core.ModeDead, Hot: hot})
		if err != nil {
			t.Fatal(err)
		}
		before := g.Snapshot()
		after := out.Snapshot()
		for _, n := range g.Nodes() {
			if hot(n) {
				continue
			}
			a := strings.Join(before[n.Label], ";")
			// Cold blocks may only GAIN statements at their
			// entry boundary (code arriving from a hot
			// neighbourhood lands there); the original suffix
			// must be intact. They must never lose anything.
			b := strings.Join(after[n.Label], ";")
			if !strings.HasSuffix(b, a) {
				t.Errorf("seed %d: cold block %s modified beyond boundary insertions:\n  before %q\n  after  %q",
					seed, n.Label, a, b)
			}
		}
	}
}

// TestHotRegionLocalizesFigure3: with the loop marked hot and the
// rest cold, the loop-invariant pair still leaves the loop (it lands
// at the boundary), while a fully cold program keeps it.
func TestHotRegionLocalizesFigure3(t *testing.T) {
	src := `
node 1 {}
node 2 {
  c := y-e
  x := c+1
}
node 3 {}
node 4 {}
node 7 { out(c) }
node 8 { out(x) }
node 9 {}
edge s 1
edge 1 2
edge 2 3
edge 3 2
edge 3 4
edge 4 7
edge 4 8
edge 7 9
edge 8 9
edge 9 e
`
	g := parse(t, src)
	out, st, err := core.Transform(g, core.Options{
		Mode: core.ModeDead,
		Hot:  hotSet("2", "3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SinkRemoved == 0 {
		t.Fatalf("nothing moved out of the hot loop:\n%s", out)
	}
	// The pair leaves the loop blocks and stops at the cold
	// boundary (entry of node 4 or the split backedge node).
	n2, _ := out.NodeByLabel("2")
	if len(n2.Stmts) != 0 {
		t.Errorf("hot loop body not emptied: %v", n2.Stmts)
	}
	rep := verify.CheckTransformed(g, out, verify.Options{Seeds: 32})
	if !rep.OK() {
		t.Error(rep)
	}
}

// TestHotRegionSinksOffTheEnd: code that sinks off the end of the
// program is dropped even when the user's region leaves the end node
// out, as it always does for a region given by block labels.
func TestHotRegionSinksOffTheEnd(t *testing.T) {
	g := parse(t, `
node 1 {
  x := a+b
  y := x
}
edge s 1
edge 1 e
`)
	for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
		out, _, err := core.Transform(g, core.Options{Mode: mode, Hot: hotSet("1")})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if n := out.NumStmts(); n != 0 {
			t.Errorf("%v: %d statements left, want 0:\n%s", mode, n, out)
		}
	}
}

// TestPressureMeasurement exercises the liveness-pressure metric on a
// pde run. Sinking is two-sided for pressure (the moved target's range
// shrinks, its operands' ranges stretch), so the robust claims are:
// peak pressure does not grow here, and eliminating partially dead
// code strictly reduces mean pressure when a dead range disappears.
func TestPressureMeasurement(t *testing.T) {
	// Elimination effect: y := a+b is dead on one branch; pde's
	// cleanup removes y's useless range there.
	g := parse(t, `
node 1 { y := a+b }
node 2 {}
node 3 { y := c }
node 4 {}
node 5 { out(x+y) }
edge s 1
edge 1 2
edge 2 3
edge 2 4
edge 3 5
edge 4 5
edge 5 e
`)
	opt, _, err := core.PDE(g)
	if err != nil {
		t.Fatal(err)
	}
	before := analysis.Pressure(g)
	after := analysis.Pressure(opt)
	if after.Max > before.Max {
		t.Errorf("peak pressure grew: %d -> %d\n%s", before.Max, after.Max, opt)
	}
	// Direction of the *mean* is workload-dependent (sinking
	// y := a+b here shortens y's range but stretches a's and b's —
	// a net increase, which is fine: pde optimizes executed work,
	// not pressure). Assert only metric consistency.
	for _, st := range []analysis.PressureStats{before, after} {
		if st.Points == 0 || st.Total == 0 {
			t.Error("metric sampled nothing")
		}
		if st.Max > st.Total || st.Mean() > float64(st.Max) {
			t.Errorf("inconsistent stats: %+v", st)
		}
	}
	// Determinism.
	if again := analysis.Pressure(g); again != before {
		t.Errorf("pressure not deterministic: %+v vs %+v", before, again)
	}
}
