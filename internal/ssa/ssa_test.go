package ssa

import (
	"strings"
	"testing"

	"pdce/internal/baseline"
	"pdce/internal/cfg"
	"pdce/internal/parser"
	"pdce/internal/progen"
	"pdce/internal/verify"
)

func TestBuildStraightLine(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 { x := 1; x := x+1; out(x) }
edge s 1
edge 1 e
`)
	p := Build(g)
	if p.NumPhis != 0 {
		t.Errorf("straight line placed %d phis", p.NumPhis)
	}
	n, _ := g.NodeByLabel("1")
	d0 := p.DefAt[n.ID][0]
	d1 := p.DefAt[n.ID][1]
	if d0.Version == d1.Version {
		t.Error("two defs of x share a version")
	}
	// x := x+1 uses the first def.
	if len(p.UsesAt[n.ID][1]) != 1 || p.UsesAt[n.ID][1][0] != d0.ID {
		t.Errorf("second statement uses %v, want [%d]", p.UsesAt[n.ID][1], d0.ID)
	}
	// out(x) uses the second def.
	if len(p.UsesAt[n.ID][2]) != 1 || p.UsesAt[n.ID][2][0] != d1.ID {
		t.Errorf("out uses %v, want [%d]", p.UsesAt[n.ID][2], d1.ID)
	}
}

func TestBuildDiamondPhi(t *testing.T) {
	g := parser.MustParseCFG(`
node a {}
node b { x := 1 }
node c { x := 2 }
node d { out(x) }
edge s a
edge a b
edge a c
edge b d
edge c d
edge d e
`)
	p := Build(g)
	d, _ := g.NodeByLabel("d")
	phis := p.PhisAt[d.ID]
	if len(phis) != 1 || phis[0].Var != "x" {
		t.Fatalf("phis at join = %v", phis)
	}
	phi := phis[0]
	if len(phi.Operands) != 2 {
		t.Fatalf("phi operands = %v", phi.Operands)
	}
	// Operands come from the two branch defs, aligned with preds.
	b, _ := g.NodeByLabel("b")
	c, _ := g.NodeByLabel("c")
	wantOps := map[int]bool{p.DefAt[b.ID][0].ID: true, p.DefAt[c.ID][0].ID: true}
	for _, op := range phi.Operands {
		if !wantOps[op] {
			t.Errorf("unexpected phi operand %d", op)
		}
	}
	// out(x) reads the phi.
	if p.UsesAt[d.ID][0][0] != phi.ID {
		t.Error("join use does not read the phi")
	}
}

func TestBuildLoopPhi(t *testing.T) {
	g := parser.MustParseSource("p", `
i := 3
while i > 0 { i := i - 1 }
out(i)
`)
	p := Build(g)
	// The loop header needs a phi for i.
	totalPhis := 0
	for _, n := range g.Nodes() {
		totalPhis += len(p.PhisAt[n.ID])
	}
	if totalPhis == 0 {
		t.Error("loop produced no phi")
	}
	if p.NumPhis != totalPhis {
		t.Error("NumPhis inconsistent")
	}
}

func TestUndefUses(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 { out(a+b) }
edge s 1
edge 1 e
`)
	p := Build(g)
	n, _ := g.NodeByLabel("1")
	uses := p.UsesAt[n.ID][0]
	if len(uses) != 2 {
		t.Fatalf("uses = %v", uses)
	}
	for _, id := range uses {
		if !p.Defs[id].IsUndef {
			t.Error("use of uninitialized variable not bound to undef")
		}
	}
}

func TestEliminateRemovesFaintChain(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 {
  a := 1
  b := a+1
  c := b+1
  out(7)
}
edge s 1
edge 1 e
`)
	out, removed := Eliminate(g)
	if removed != 3 {
		t.Errorf("removed %d, want the whole chain (3)", removed)
	}
	if out.NumAssignments() != 0 {
		t.Errorf("assignments left: %d", out.NumAssignments())
	}
	cfg.MustValidate(out)
}

func TestEliminateKeepsLiveCode(t *testing.T) {
	g := parser.MustParseSource("p", `
x := 1
y := x + 1
out(y)
`)
	out, removed := Eliminate(g)
	if removed != 0 {
		t.Errorf("removed %d live assignments", removed)
	}
	if !cfg.Equal(g, out) {
		t.Error("graph changed despite nothing to remove")
	}
}

func TestEliminateFigure9SelfLoop(t *testing.T) {
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
	out, removed := Eliminate(g)
	if removed != 1 {
		t.Errorf("removed %d, want the faint self-increment", removed)
	}
	n3, _ := out.NodeByLabel("3")
	if len(n3.Stmts) != 0 {
		t.Error("x := x+1 survived")
	}
}

func TestEliminateBranchOperandsLive(t *testing.T) {
	g := parser.MustParseSource("p", `
c := n + 1
if c > 0 { out(1) } else { out(2) }
`)
	_, removed := Eliminate(g)
	if removed != 0 {
		t.Error("assignment feeding a branch condition was removed")
	}
}

// TestEliminateMatchesIteratedFCE cross-validates two very different
// implementations of "remove exactly the useless assignments": SSA
// mark-and-sweep (this package) against the faint-variable fixpoint
// (analysis + core). They must remove the same statements.
func TestEliminateMatchesIteratedFCE(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		params := progen.Params{Seed: seed, Stmts: 60, Vars: 5, LoopProb: 0.15, BranchProb: 0.25}
		if seed%4 == 0 {
			params.Irreducible = true
		}
		g := progen.Generate(params)
		bySSA, nSSA := Eliminate(g)
		byFCE := baseline.IteratedFCE(g)
		if nSSA != byFCE.Removed {
			t.Errorf("seed %d: ssa removed %d, fce removed %d", seed, nSSA, byFCE.Removed)
		}
		if diffs := cfg.Diff(bySSA, byFCE.Graph); len(diffs) > 0 {
			t.Errorf("seed %d: results differ:\n  %s", seed, strings.Join(diffs, "\n  "))
		}
	}
}

// TestEliminatePreservesSemantics replays executions against the
// swept program.
func TestEliminatePreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 50, Vars: 6})
		out, _ := Eliminate(g)
		rep := verify.CheckTransformed(g, out, verify.Options{Seeds: 24, Fuel: 512})
		if !rep.OK() {
			t.Errorf("seed %d: %s", seed, rep)
		}
	}
}

func TestProgramString(t *testing.T) {
	g := parser.MustParseCFG(`
node a {}
node b { x := 1 }
node c { x := 2 }
node d { out(x) }
edge s a
edge a b
edge a c
edge b d
edge c d
edge d e
`)
	p := Build(g)
	str := p.String()
	if !strings.Contains(str, "phi(") {
		t.Errorf("String() missing phi rendering:\n%s", str)
	}
	if !strings.Contains(str, "x.") {
		t.Errorf("String() missing versioned names:\n%s", str)
	}
}
