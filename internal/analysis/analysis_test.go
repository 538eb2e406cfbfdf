package analysis

import (
	"testing"

	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/parser"
	"pdce/internal/progen"
)

func mustNode(t *testing.T, g *cfg.Graph, label string) *cfg.Node {
	t.Helper()
	n, ok := g.NodeByLabel(label)
	if !ok {
		t.Fatalf("no node %q", label)
	}
	return n
}

// --- Table 1: dead variables ------------------------------------------

func TestDeadVarsStraightLine(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 {
  x := a+b
  y := x+1
  out(y)
  x := 5
}
edge s 1
edge 1 e
`)
	d := DeadVars(g)
	n := mustNode(t, g, "1")
	xd := d.InstrX(n)

	x, _ := d.Vars.Index("x")
	y, _ := d.Vars.Index("y")
	a, _ := d.Vars.Index("a")

	// After x := a+b: x is used by y := x+1 -> live; a never used
	// again -> dead.
	if xd[0].Get(x) {
		t.Error("x dead immediately after its definition despite the use below")
	}
	if !xd[0].Get(a) {
		t.Error("a not dead after its last use")
	}
	// After out(y): y dead (no further use).
	if !xd[2].Get(y) {
		t.Error("y not dead after out(y)")
	}
	// After x := 5 (last statement): everything dead at program end.
	if !xd[3].Get(x) {
		t.Error("x not dead at program end")
	}
	// And therefore x := 5 is an eliminable dead assignment while
	// x := a+b is not.
	if !d.XAfter(n, 3, "x") || d.XAfter(n, 0, "x") {
		t.Error("XAfter disagrees with InstrX")
	}
}

func TestDeadVarsJoin(t *testing.T) {
	// x is dead after node 1 only if dead on BOTH branches.
	g := parser.MustParseCFG(`
node 1 { x := a+b }
node 2 {}
node 3 { out(x) }
node 4 { x := 1; out(x) }
edge s 1
edge 1 2
edge 2 3
edge 2 4
edge 3 e
edge 4 e
`)
	d := DeadVars(g)
	n1 := mustNode(t, g, "1")
	if d.XAfter(n1, 0, "x") {
		t.Error("x live through node 3 but reported dead")
	}
	// Branch statements keep their operands alive.
	g2 := parser.MustParseCFG(`
node 1 { c := a+b; branch(c > 0) }
node 2 {}
node 3 {}
node 4 { out(1) }
edge s 1
edge 1 2
edge 1 3
edge 2 4
edge 3 4
edge 4 e
`)
	d2 := DeadVars(g2)
	m := mustNode(t, g2, "1")
	if d2.XAfter(m, 0, "c") {
		t.Error("branch condition operand reported dead (footnote 2 violated)")
	}
}

func TestDeadVarsLoop(t *testing.T) {
	// i is live around the loop (used by the branch), acc is live
	// (used by out after), junk is dead.
	g := parser.MustParseCFG(`
node h { branch(i > 0) }
node b { acc := acc+i; junk := acc*2; i := i-1 }
node x { out(acc) }
edge s h
edge h b
edge h x
edge b h
edge x e
`)
	d := DeadVars(g)
	nb := mustNode(t, g, "b")
	if d.XAfter(nb, 0, "acc") {
		t.Error("acc reported dead in loop")
	}
	if !d.XAfter(nb, 1, "junk") {
		t.Error("junk not reported dead")
	}
	if d.XAfter(nb, 2, "i") {
		t.Error("i reported dead despite loop branch use")
	}
}

// --- Table 1: faint variables -----------------------------------------

func TestFaintFigure9(t *testing.T) {
	// The paper's Figure 9: x := x+1 in a loop, x never otherwise
	// used — faint but not dead.
	g := parser.MustParseCFG(`
node 1 {}
node 2 {}
node 3 { x := x+1 }
node 4 {}
edge s 1
edge 1 2
edge 2 3
edge 2 4
edge 3 2
edge 4 e
`)
	f := FaintVars(g)
	n3 := mustNode(t, g, "3")
	if !f.FaintAfter(n3, 0, "x") {
		t.Error("x not faint after x := x+1")
	}
	d := DeadVars(g)
	if d.XAfter(n3, 0, "x") {
		t.Error("x reported dead — it is only faint")
	}
}

func TestFaintChain(t *testing.T) {
	// a feeds b feeds c; c unused: the whole chain is faint, and
	// nothing is dead except the last link.
	g := parser.MustParseCFG(`
node 1 {
  a := 1
  b := a+1
  c := b+1
  out(9)
}
edge s 1
edge 1 e
`)
	f := FaintVars(g)
	d := DeadVars(g)
	n := mustNode(t, g, "1")
	for i, v := range []ir.Var{"a", "b", "c"} {
		if !f.FaintAfter(n, i, v) {
			t.Errorf("%s not faint after its definition", v)
		}
	}
	if d.XAfter(n, 0, "a") || d.XAfter(n, 1, "b") {
		t.Error("chain heads reported dead — only faint")
	}
	if !d.XAfter(n, 2, "c") {
		t.Error("chain tail not dead")
	}
}

func TestFaintStoppedByRelevantUse(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 {
  a := 1
  b := a+1
  out(b)
}
edge s 1
edge 1 e
`)
	f := FaintVars(g)
	n := mustNode(t, g, "1")
	if f.FaintAfter(n, 0, "a") || f.FaintAfter(n, 1, "b") {
		t.Error("variables feeding a relevant statement reported faint")
	}
}

// TestFaintSlotwiseMatchesEngine cross-validates the paper's slotwise
// worklist solver against the block-level engine's faint solve on
// random programs — both compute the greatest solution of the Table 1
// equations.
func TestFaintSlotwiseMatchesEngine(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		params := progen.Params{Seed: seed, Stmts: 50, Vars: 5, LoopProb: 0.15, BranchProb: 0.25}
		if seed%3 == 0 {
			params.Irreducible = true
		}
		g := progen.Generate(params)
		slot := FaintVars(g)
		block := NewElimSolver(g, NewFootprints(g), true).Solve(nil)
		// Compare N-FAINT at every block entry and X-FAINT at
		// every block exit.
		for _, n := range g.Nodes() {
			if !slot.EntryFaint(n).Equal(block.N[n.ID]) {
				t.Fatalf("seed %d node %s: entry faint differs: slot=%s block=%s\n%s",
					seed, n.Label, slot.EntryFaint(n), block.N[n.ID], g)
			}
			if !slot.ExitFaint(n).Equal(block.X[n.ID]) {
				t.Fatalf("seed %d node %s: exit faint differs", seed, n.Label)
			}
			// Per-instruction agreement too.
			ix := block.InstrX(n)
			for si := range n.Stmts {
				for vi := 0; vi < slot.Vars.Len(); vi++ {
					v := slot.Vars.Var(vi)
					if slot.FaintAfter(n, si, v) != ix[si].Get(vi) {
						t.Fatalf("seed %d node %s stmt %d var %s: instruction-level faint differs",
							seed, n.Label, si, v)
					}
				}
			}
		}
	}
}

// TestDeadImpliesFaint: deadness is strictly stronger per point.
func TestDeadImpliesFaint(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 40, Vars: 5})
		d := DeadVars(g)
		f := FaintVars(g)
		for _, n := range g.Nodes() {
			xd := d.InstrX(n)
			for si := range n.Stmts {
				for vi := 0; vi < d.Vars.Len(); vi++ {
					v := d.Vars.Var(vi)
					if xd[si].Get(vi) && !f.FaintAfter(n, si, v) {
						t.Fatalf("seed %d: %s dead but not faint after %s[%d]", seed, v, n.Label, si)
					}
				}
			}
		}
	}
}

// TestElimSolverStorageAllocs pins the solvers' storage rule: each
// per-node vector family is one bitvec.Rows slab, so building an
// ElimSolver costs a number of allocations that does not grow with the
// graph. The footprints are resolved by AllocsPerRun's warm-up run, so
// only the solver's own storage is counted.
func TestElimSolverStorageAllocs(t *testing.T) {
	allocs := func(stmts int) (float64, int) {
		g := progen.Generate(progen.Params{Seed: 42, Stmts: stmts})
		cfg.SplitCriticalEdges(g)
		fp := NewFootprints(g)
		return testing.AllocsPerRun(5, func() { NewElimSolver(g, fp, false) }), g.NumNodes()
	}
	small, smallNodes := allocs(256)
	large, largeNodes := allocs(4096)
	// One allocation per vector would add four per block: thousands.
	const slack = 32
	t.Logf("NewElimSolver: %.0f allocations on %d blocks, %.0f on %d", large, largeNodes, small, smallNodes)
	if large > small+slack {
		t.Errorf("want at most %d more allocations on the larger graph", slack)
	}
}

// --- Figure 13: local predicates ---------------------------------------

func TestFigure13Candidates(t *testing.T) {
	// Block with the trailing a := d of Figure 13.
	g := parser.MustParseCFG(`
node 1 {
  y := a+b
  a := c
  x := 3*y
  y := a+b
  a := d
}
node 2 { out(x+y); out(a) }
edge s 1
edge 1 2
edge 2 e
`)
	pt := g.CollectPatterns()
	l := ComputeLocals(g, pt)
	n1 := mustNode(t, g, "1")

	cands := l.SinkingCandidates(n1)
	if len(cands) != 1 {
		t.Fatalf("candidates = %v, want exactly the trailing a := d", cands)
	}
	if cands[0].Pattern.String() != "a := d" || cands[0].StmtIndex != 4 {
		t.Errorf("candidate = %+v", cands[0])
	}

	// y := a+b has no candidate: the last occurrence is blocked by
	// the trailing modification of its operand a.
	yab, ok := pt.Index(ir.Pattern{LHS: "y", RHS: "(a+b)"})
	if !ok {
		t.Fatal("pattern y := a+b not collected")
	}
	if l.LocDelayed[n1.ID].Get(yab) {
		t.Error("blocked y := a+b reported as candidate")
	}
	if !l.LocBlocked[n1.ID].Get(yab) {
		t.Error("LOCBLOCKED not set for y := a+b")
	}
}

func TestFigure13CandidatesWithoutTrailingKill(t *testing.T) {
	// Dropping a := d makes the *last* y := a+b the candidate — and
	// only the last (the first is blocked by a := c, x := 3*y and
	// the second occurrence).
	g := parser.MustParseCFG(`
node 1 {
  y := a+b
  a := c
  x := 3*y
  y := a+b
}
node 2 { out(x+y); out(a) }
edge s 1
edge 1 2
edge 2 e
`)
	pt := g.CollectPatterns()
	l := ComputeLocals(g, pt)
	n1 := mustNode(t, g, "1")
	yab, _ := pt.Index(ir.Pattern{LHS: "y", RHS: "(a+b)"})
	if got := l.Candidate(n1.ID, yab); got != 3 {
		t.Errorf("candidate index = %d, want 3 (the last occurrence)", got)
	}
}

func TestFirstBlockerIdx(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 {
  z := 1
  out(x)
  z := 2
}
edge s 1
edge 1 e
`)
	pt := ir.NewPatternTable(0)
	xab := pt.Add(ir.Assign{LHS: "x", RHS: ir.Add(ir.V("a"), ir.V("b"))})
	l := ComputeLocals(g, pt)
	n := mustNode(t, g, "1")
	if got := l.FirstBlockerIdx(n, xab); got != 1 {
		t.Errorf("FirstBlockerIdx = %d, want 1 (the out(x))", got)
	}
}

// --- Table 2: delayability ----------------------------------------------

func TestDelayabilityFigure1(t *testing.T) {
	// Hand-checked solution of Table 2 on the paper's Figure 1.
	g := parser.MustParseCFG(`
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
	pt := g.CollectPatterns()
	r := Delayability(g, pt)
	alpha, ok := pt.Index(ir.Pattern{LHS: "y", RHS: "(a+b)"})
	if !ok {
		t.Fatal("pattern missing")
	}

	want := map[string]struct{ nDel, xDel, nIns, xIns bool }{
		"s": {false, false, false, false},
		"1": {false, true, false, false}, // LOCDELAYED arms X-DELAYED
		"2": {true, true, false, false},
		"3": {true, false, true, false}, // blocked by y := c -> N-INSERT
		"4": {true, true, false, true},  // join 5 not delayed -> X-INSERT
		"5": {false, false, false, false},
		"e": {false, false, false, false},
	}
	ni, xi := bitvec.New(pt.Len()), bitvec.New(pt.Len())
	for label, w := range want {
		n := mustNode(t, g, label)
		r.Inserts(n, ni, xi)
		if got := r.NDelayed[n.ID].Get(alpha); got != w.nDel {
			t.Errorf("N-DELAYED(%s) = %v, want %v", label, got, w.nDel)
		}
		if got := r.XDelayed[n.ID].Get(alpha); got != w.xDel {
			t.Errorf("X-DELAYED(%s) = %v, want %v", label, got, w.xDel)
		}
		if got := ni.Get(alpha); got != w.nIns {
			t.Errorf("N-INSERT(%s) = %v, want %v", label, got, w.nIns)
		}
		if got := xi.Get(alpha); got != w.xIns {
			t.Errorf("X-INSERT(%s) = %v, want %v", label, got, w.xIns)
		}
	}
	if r.Stable(g) {
		t.Error("figure 1 reported stable although sinking changes it")
	}
}

func TestDelayabilityNoExitInsertAtBranchNodes(t *testing.T) {
	// Footnote 6: after splitting critical edges there are no exit
	// insertions at branching nodes.
	for seed := int64(0); seed < 20; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 50, LoopProb: 0.2, BranchProb: 0.3})
		cfg.SplitCriticalEdges(g)
		pt := g.CollectPatterns()
		r := Delayability(g, pt)
		ni, xi := bitvec.New(pt.Len()), bitvec.New(pt.Len())
		for _, n := range g.Nodes() {
			r.Inserts(n, ni, xi)
			if len(n.Succs()) > 1 && !xi.IsZero() {
				t.Fatalf("seed %d: X-INSERT at branching node %s", seed, n.Label)
			}
		}
	}
}

func TestDelayabilityStableOnFixpoint(t *testing.T) {
	// A program with no sinking opportunity is stable: every
	// assignment immediately precedes its use.
	g := parser.MustParseCFG(`
node 1 { x := a+b; out(x) }
edge s 1
edge 1 e
`)
	r := Delayability(g, g.CollectPatterns())
	if !r.Stable(g) {
		t.Error("blocked-in-place program reported unstable")
	}
}

// --- reaching definitions ------------------------------------------------

func TestReachingDefs(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 { x := 1 }
node 2 {}
node 3 { x := 2 }
node 4 { out(x) }
edge s 1
edge 1 2
edge 2 3
edge 2 4
edge 3 4
edge 4 e
`)
	rd := ReachingDefs(g)
	if len(rd.Defs) != 2 {
		t.Fatalf("Defs = %v", rd.Defs)
	}
	// Both definitions of x reach the out(x) use.
	n4 := mustNode(t, g, "4")
	outIdx := rd.Flat.BlockEntry(n4)
	defs := rd.DefsReachingUse(outIdx, "x")
	if len(defs) != 2 {
		t.Errorf("defs reaching out(x) = %v, want both", defs)
	}
	// The def in node 3 kills the def from node 1 on its path:
	// at the entry of node 3's statement, only def 1 reaches.
	n3 := mustNode(t, g, "3")
	n3Idx := rd.Flat.BlockEntry(n3)
	defs3 := rd.DefsReachingUse(n3Idx, "x")
	if len(defs3) != 1 {
		t.Errorf("defs reaching node 3 = %v, want one", defs3)
	}
	// Def-use chains: def at node 1 is used by out(x) (and nothing
	// else — node 3's assignment does not read x).
	chains := rd.DefUseChains()
	for bit, di := range rd.Defs {
		n := rd.Flat.Instrs[di].Node.Label
		switch n {
		case "1", "3":
			if len(chains[bit]) != 1 || rd.Flat.Instrs[chains[bit][0]].Node.Label != "4" {
				t.Errorf("chain of def in %s = %v", n, chains[bit])
			}
		}
	}
}

func TestReachingDefsKillWithinBlock(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 { x := 1; x := 2; out(x) }
edge s 1
edge 1 e
`)
	rd := ReachingDefs(g)
	n := mustNode(t, g, "1")
	outIdx := rd.Flat.BlockEntry(n) + 2
	defs := rd.DefsReachingUse(outIdx, "x")
	if len(defs) != 1 {
		t.Fatalf("defs reaching out = %v, want only the second", defs)
	}
	if rd.Flat.Instrs[defs[0]].Index != 1 {
		t.Errorf("surviving def is statement %d, want 1", rd.Flat.Instrs[defs[0]].Index)
	}
}

// --- liveness pressure ----------------------------------------------------

func TestPressureStraightLine(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 {
  a := 1
  b := 2
  out(a+b)
}
edge s 1
edge 1 e
`)
	st := Pressure(g)
	// Entry of a := 1: nothing live. Entry of b := 2: a live (1).
	// Entry of out: a and b live (2). Plus s and e empty points (0).
	if st.Max != 2 {
		t.Errorf("Max = %d, want 2", st.Max)
	}
	if st.Total != 3 {
		t.Errorf("Total = %d, want 3 (0+1+2 at the statements, 0 at s/e)", st.Total)
	}
	if st.Points != 5 {
		t.Errorf("Points = %d, want 5", st.Points)
	}
	if st.Mean() <= 0 {
		t.Error("Mean not positive")
	}
}
