package cfg

import (
	"strings"
	"testing"

	"pdce/internal/ir"
)

// diamond builds s -> a -> {b, c} -> d -> e.
func diamond(t *testing.T) (*Graph, *Node, *Node, *Node, *Node) {
	t.Helper()
	g := New("diamond")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.AddEdge(g.Start, a)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.AddEdge(d, g.End)
	return g, a, b, c, d
}

func TestNewGraphShape(t *testing.T) {
	g := New("t")
	if g.Start.Label != "s" || g.End.Label != "e" {
		t.Fatal("start/end labels wrong")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatal("fresh graph not empty")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	g := New("t")
	g.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	g.AddNode("x")
}

func TestDuplicateEdgePanics(t *testing.T) {
	g := New("t")
	a := g.AddNode("a")
	g.AddEdge(g.Start, a)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate edge did not panic")
		}
	}()
	g.AddEdge(g.Start, a)
}

func TestAdjacency(t *testing.T) {
	g, a, b, c, d := diamond(t)
	if len(a.Succs()) != 2 || a.Succs()[0] != b || a.Succs()[1] != c {
		t.Error("successor order not preserved")
	}
	if len(d.Preds()) != 2 {
		t.Error("preds wrong")
	}
	if !g.HasEdge(a, b) || g.HasEdge(b, a) {
		t.Error("HasEdge wrong")
	}
	if g.NumEdges() != 6 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

func TestValidateAcceptsDiamond(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	if errs := Validate(g); len(errs) > 0 {
		t.Fatalf("diamond invalid: %v", errs)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	contains := func(errs []string, frag string) bool {
		for _, e := range errs {
			if strings.Contains(e, frag) {
				return true
			}
		}
		return false
	}

	// Unreachable node.
	g := New("t")
	a := g.AddNode("a")
	g.AddEdge(g.Start, g.End)
	_ = a
	errs := Validate(g)
	if !contains(errs, "unreachable") {
		t.Errorf("unreachable node not reported: %v", errs)
	}

	// Node that cannot reach the end.
	g2 := New("t2")
	a2 := g2.AddNode("a")
	b2 := g2.AddNode("trap")
	g2.AddEdge(g2.Start, a2)
	g2.AddEdge(a2, g2.End)
	g2.AddEdge(a2, b2)
	g2.AddEdge(b2, b2)
	errs2 := Validate(g2)
	if !contains(errs2, "cannot reach end") {
		t.Errorf("trap node not reported: %v", errs2)
	}

	// Branch statement not last / wrong successor count.
	g3 := New("t3")
	a3 := g3.AddNode("a")
	a3.Stmts = []ir.Stmt{ir.Branch{Cond: ir.V("c")}, ir.Skip{}}
	g3.AddEdge(g3.Start, a3)
	g3.AddEdge(a3, g3.End)
	errs3 := Validate(g3)
	if !contains(errs3, "not last") {
		t.Errorf("misplaced branch not reported: %v", errs3)
	}

	// Statements in start node.
	g4 := New("t4")
	g4.Start.Stmts = []ir.Stmt{ir.Skip{}}
	a4 := g4.AddNode("a")
	g4.AddEdge(g4.Start, a4)
	g4.AddEdge(a4, g4.End)
	errs4 := Validate(g4)
	if !contains(errs4, "start node must be empty") {
		t.Errorf("non-empty start not reported: %v", errs4)
	}
}

func TestCriticalEdgeDetectionAndSplit(t *testing.T) {
	// s -> a -> {b, j}; p -> j: edge a->j is critical.
	g := New("crit")
	a := g.AddNode("a")
	b := g.AddNode("b")
	p := g.AddNode("p")
	j := g.AddNode("j")
	g.AddEdge(g.Start, a)
	g.AddEdge(g.Start, p)
	g.AddEdge(a, b)
	g.AddEdge(a, j)
	g.AddEdge(p, j)
	g.AddEdge(b, g.End)
	g.AddEdge(j, g.End)

	if !IsCriticalEdge(a, j) {
		t.Fatal("a->j should be critical")
	}
	if IsCriticalEdge(a, b) || IsCriticalEdge(p, j) {
		t.Fatal("non-critical edges misclassified")
	}
	// s has two successors and a/p single preds: s->a not critical.
	if IsCriticalEdge(g.Start, a) {
		t.Fatal("s->a should not be critical")
	}
	if CountCriticalEdges(g) != 1 {
		t.Fatalf("CountCriticalEdges = %d", CountCriticalEdges(g))
	}

	inserted := SplitCriticalEdges(g)
	if len(inserted) != 1 {
		t.Fatalf("split %d edges, want 1", len(inserted))
	}
	mid := inserted[0]
	if !mid.Synthetic || mid.Label != "Sa,j" {
		t.Errorf("synthetic node wrong: %q synthetic=%v", mid.Label, mid.Synthetic)
	}
	if g.HasEdge(a, j) {
		t.Error("original critical edge still present")
	}
	if !g.HasEdge(a, mid) || !g.HasEdge(mid, j) {
		t.Error("split edges missing")
	}
	// Successor order of a preserved: b first, then the new node.
	if a.Succs()[0] != b || a.Succs()[1] != mid {
		t.Error("successor order changed by splitting")
	}
	if CountCriticalEdges(g) != 0 {
		t.Error("critical edges remain after splitting")
	}
	MustValidate(g)
}

func TestRemoveEmptySynthetic(t *testing.T) {
	g := New("rs")
	a := g.AddNode("a")
	b := g.AddNode("b")
	p := g.AddNode("p")
	j := g.AddNode("j")
	g.AddEdge(g.Start, a)
	g.AddEdge(g.Start, p)
	g.AddEdge(a, b)
	g.AddEdge(a, j)
	g.AddEdge(p, j)
	g.AddEdge(b, g.End)
	g.AddEdge(j, g.End)
	before := g.Format()
	SplitCriticalEdges(g)
	removed := RemoveEmptySynthetic(g)
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if g.Format() != before {
		t.Errorf("split+remove is not the identity:\n%s\nvs\n%s", g.Format(), before)
	}
	MustValidate(g)
}

func TestRemoveEmptySyntheticKeepsNonEmpty(t *testing.T) {
	g := New("rs2")
	a := g.AddNode("a")
	b := g.AddNode("b")
	p := g.AddNode("p")
	j := g.AddNode("j")
	g.AddEdge(g.Start, a)
	g.AddEdge(g.Start, p)
	g.AddEdge(a, b)
	g.AddEdge(a, j)
	g.AddEdge(p, j)
	g.AddEdge(b, g.End)
	g.AddEdge(j, g.End)
	mids := SplitCriticalEdges(g)
	mids[0].Stmts = append(mids[0].Stmts, ir.Assign{LHS: "x", RHS: ir.C(1)})
	if RemoveEmptySynthetic(g) != 0 {
		t.Error("non-empty synthetic node was removed")
	}
}

func TestOrders(t *testing.T) {
	g, a, b, c, d := diamond(t)
	rpo := ReversePostorder(g)
	pos := map[*Node]int{}
	for i, n := range rpo {
		pos[n] = i
	}
	if pos[g.Start] != 0 {
		t.Error("start not first in RPO")
	}
	if !(pos[a] < pos[b] && pos[a] < pos[c] && pos[b] < pos[d] && pos[c] < pos[d] && pos[d] < pos[g.End]) {
		t.Error("RPO does not respect the diamond's topological order")
	}
	po := Postorder(g)
	if po[len(po)-1] != g.Start {
		t.Error("start not last in postorder")
	}
}

func TestReachability(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	from := ReachableFromStart(g)
	to := ReachesEnd(g)
	for _, n := range g.Nodes() {
		if !from[n.ID] || !to[n.ID] {
			t.Errorf("node %s reachability wrong", n.Label)
		}
	}
	_ = a
}

func TestDominators(t *testing.T) {
	g, a, b, c, d := diamond(t)
	dom := BuildDomTree(g)
	if dom.IDom(a) != g.Start {
		t.Error("idom(a) != s")
	}
	if dom.IDom(b) != a || dom.IDom(c) != a {
		t.Error("idom of branches != a")
	}
	if dom.IDom(d) != a {
		t.Error("idom of join != a (should skip b and c)")
	}
	if !dom.Dominates(a, d) || dom.Dominates(b, d) {
		t.Error("Dominates wrong")
	}
	df := dom.DominanceFrontiers()
	if len(df[b]) != 1 || df[b][0] != d {
		t.Errorf("DF(b) = %v, want [d]", df[b])
	}
	if len(df[a]) != 0 {
		t.Errorf("DF(a) = %v, want empty", df[a])
	}
}

func TestDominatorsLoop(t *testing.T) {
	// s -> h; h -> body -> h; h -> x -> e
	g := New("loop")
	h := g.AddNode("h")
	body := g.AddNode("b")
	x := g.AddNode("x")
	g.AddEdge(g.Start, h)
	g.AddEdge(h, body)
	g.AddEdge(h, x)
	g.AddEdge(body, h)
	g.AddEdge(x, g.End)
	dom := BuildDomTree(g)
	if dom.IDom(body) != h || dom.IDom(x) != h {
		t.Error("loop idoms wrong")
	}
	df := dom.DominanceFrontiers()
	// body's frontier is the header it loops back to.
	if len(df[body]) != 1 || df[body][0] != h {
		t.Errorf("DF(body) = %v, want [h]", df[body])
	}
	// h is in its own frontier (it dominates body which re-enters h).
	found := false
	for _, n := range df[h] {
		if n == h {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(h) = %v, want to contain h", df[h])
	}
}

func TestCloneIndependence(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	a.Stmts = []ir.Stmt{ir.Assign{LHS: "x", RHS: ir.C(1)}}
	c := g.Clone()
	if !Equal(g, c) {
		t.Fatal("clone not equal to original")
	}
	ca, _ := c.NodeByLabel("a")
	ca.Stmts = append(ca.Stmts, ir.Skip{})
	if Equal(g, c) {
		t.Fatal("mutating clone affected original (or Equal is broken)")
	}
	if len(a.Stmts) != 1 {
		t.Fatal("original statements changed")
	}
}

// TestCloneSlabsIsolated: Clone carves nodes, statements and adjacency
// from slabs and caps every block's slices at their own length. Growing
// one graph's blocks — a statement appended to each, an edge added,
// critical edges split — must leave the other graph's Format as it was,
// in both directions and for a clone of a clone, and must not write
// into a neighbouring block: the same edits give the same text on both
// sides, and both graphs stay valid.
func TestCloneSlabsIsolated(t *testing.T) {
	build := func() *Graph {
		g := New("slabs")
		a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
		a.Stmts = []ir.Stmt{ir.Assign{LHS: "x", RHS: ir.Add(ir.V("p"), ir.V("q"))}}
		b.Stmts = []ir.Stmt{ir.Assign{LHS: "y", RHS: ir.C(1)}, ir.Out{Arg: ir.V("x")}}
		c.Stmts = []ir.Stmt{ir.Assign{LHS: "x", RHS: ir.V("y")}}
		d.Stmts = []ir.Stmt{ir.Out{Arg: ir.V("x")}, ir.Out{Arg: ir.V("y")}}
		g.AddEdge(g.Start, a)
		g.AddEdge(a, b)
		g.AddEdge(a, c) // critical once b -> c exists
		g.AddEdge(b, c)
		g.AddEdge(c, d)
		g.AddEdge(d, g.End)
		return g
	}
	edit := func(g *Graph) {
		for _, n := range g.Nodes() {
			if n != g.Start && n != g.End {
				n.Stmts = append(n.Stmts, ir.Assign{LHS: "z", RHS: ir.C(int64(n.ID))})
			}
		}
		a, _ := g.NodeByLabel("a")
		d, _ := g.NodeByLabel("d")
		g.AddEdge(a, d)
		SplitCriticalEdges(g)
	}
	for _, tc := range []struct {
		name   string
		graphs func() (mut, other *Graph)
	}{
		{"edit the clone", func() (*Graph, *Graph) { g := build(); return g.Clone(), g }},
		{"edit the source", func() (*Graph, *Graph) { g := build(); return g, g.Clone() }},
		{"edit a clone's clone", func() (*Graph, *Graph) { c := build().Clone(); return c.Clone(), c }},
		{"edit a clone cloned", func() (*Graph, *Graph) { c := build().Clone(); return c, c.Clone() }},
	} {
		mut, other := tc.graphs()
		want := other.Format()
		edit(mut)
		if got := other.Format(); got != want {
			t.Fatalf("%s: the other graph changed:\n%s\nwant\n%s", tc.name, got, want)
		}
		edit(other)
		if got, want := mut.Format(), other.Format(); got != want {
			t.Fatalf("%s: the same edits gave\n%s\nand\n%s", tc.name, got, want)
		}
		// Format prints successors only; a predecessor list overwritten
		// by a neighbour's append shows as an inconsistent adjacency.
		for _, g := range []*Graph{mut, other} {
			if errs := Validate(g); len(errs) > 0 {
				t.Fatalf("%s: %v", tc.name, errs)
			}
		}
	}
}

func TestDiffReportsAllKinds(t *testing.T) {
	g1, a1, _, _, _ := diamond(t)
	g2 := g1.Clone()
	a1.Stmts = []ir.Stmt{ir.Skip{}}
	diffs := Diff(g1, g2)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "node a") {
		t.Errorf("Diff = %v", diffs)
	}

	g3 := g1.Clone()
	extra := g3.AddNode("z")
	g3.AddEdge(g3.Start, extra)
	g3.AddEdge(extra, g3.End)
	diffs = Diff(g1, g3)
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "only in second graph") {
		t.Errorf("Diff missed extra node/edges: %v", diffs)
	}
}

func TestFormatRoundTripStable(t *testing.T) {
	g, a, _, _, d := diamond(t)
	a.Stmts = []ir.Stmt{ir.Assign{LHS: "x", RHS: ir.Add(ir.V("a"), ir.V("b"))}}
	d.Stmts = []ir.Stmt{ir.Out{Arg: ir.V("x")}}
	f1 := g.Format()
	f2 := g.Clone().Format()
	if f1 != f2 {
		t.Error("Format not deterministic across clone")
	}
	if !strings.Contains(f1, "x := a+b") || !strings.Contains(f1, "out(x)") {
		t.Errorf("Format missing statements:\n%s", f1)
	}
}

func TestPatternCounts(t *testing.T) {
	g, a, b, _, _ := diamond(t)
	st := ir.Assign{LHS: "x", RHS: ir.Add(ir.V("a"), ir.V("b"))}
	a.Stmts = []ir.Stmt{st}
	b.Stmts = []ir.Stmt{st, ir.Out{Arg: ir.V("x")}}
	counts := PatternCounts(g)
	p, _ := ir.PatternOf(st)
	if counts[p] != 2 {
		t.Errorf("PatternCounts = %v", counts)
	}
}

func TestDOTOutput(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	a.Stmts = []ir.Stmt{ir.Branch{Cond: ir.V("c")}}
	dot := DOT(g)
	for _, frag := range []string{"digraph", `"a" ->`, "label=\"T\"", "label=\"F\""} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

func TestNumCounters(t *testing.T) {
	g, a, _, _, _ := diamond(t)
	a.Stmts = []ir.Stmt{
		ir.Assign{LHS: "x", RHS: ir.C(1)},
		ir.Out{Arg: ir.V("x")},
	}
	if g.NumStmts() != 2 || g.NumAssignments() != 1 {
		t.Errorf("NumStmts=%d NumAssignments=%d", g.NumStmts(), g.NumAssignments())
	}
	vars := g.CollectVars()
	if vars.Len() != 1 {
		t.Errorf("CollectVars.Len = %d", vars.Len())
	}
	pt := g.CollectPatterns()
	if pt.Len() != 1 {
		t.Errorf("CollectPatterns.Len = %d", pt.Len())
	}
}

func TestTerminator(t *testing.T) {
	_, a, _, _, _ := diamond(t)
	if _, ok := a.Terminator(); ok {
		t.Error("branch reported on plain node")
	}
	a.Stmts = []ir.Stmt{ir.Skip{}, ir.Branch{Cond: ir.V("c")}}
	if b, ok := a.Terminator(); !ok || b.Cond.Key() != "c" {
		t.Error("Terminator missed trailing branch")
	}
}

// TestStringListing pins String's line layout: the label padded to 8
// runes (not bytes), statements joined by "; ", successors by spaces,
// and trailing spaces trimmed, which also trims a last successor's.
func TestStringListing(t *testing.T) {
	g := New("listing")
	multi := g.AddNode("näh")
	eight := g.AddNode("exactly8")
	long := g.AddNode("longer label")
	spaced := g.AddNode("x y ")
	multi.Stmts = []ir.Stmt{
		ir.Assign{LHS: "x", RHS: ir.Add(ir.V("a"), ir.V("b"))},
		ir.Out{Arg: ir.V("x")},
	}
	eight.Stmts = []ir.Stmt{ir.Skip{}}
	spaced.Stmts = []ir.Stmt{ir.Branch{Cond: ir.V("c")}}
	g.AddEdge(g.Start, multi)
	g.AddEdge(multi, eight)
	g.AddEdge(multi, spaced)
	g.AddEdge(eight, long)
	g.AddEdge(spaced, long)
	g.AddEdge(spaced, eight)
	g.AddEdge(long, g.End)
	want := "s        [] -> näh\n" +
		"e        [] ->\n" +
		"näh      [x := a+b; out(x)] -> exactly8 x y\n" +
		"exactly8 [skip] -> longer label\n" +
		"longer label [] -> e\n" +
		"x y      [branch(c)] -> longer label exactly8\n"
	if got := g.String(); got != want {
		t.Errorf("String() =\n%s\nwant\n%s", got, want)
	}
}
