package core

import (
	"os"
	"path/filepath"
	"testing"

	"pdce/internal/analysis"
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/parser"
	"pdce/internal/progen"
)

// TestSinkSkipsOnlySettledBlocks drives the incremental driver's rounds
// on the corpus and on structured, irreducible and hot-region programs,
// in both modes. After every delayability solve, each block
// DelayResult.NeedsScan rejects must already satisfy Section 5.4's
// stability condition (N-INSERT = ∅, X-INSERT = LOCDELAYED): the sink
// step skips it on that claim.
func TestSinkSkipsOnlySettledBlocks(t *testing.T) {
	type program struct {
		g   *cfg.Graph
		hot HotPredicate
	}
	var progs []program
	paths, err := filepath.Glob("../../testdata/corpus/*.while")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs (%v)", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := parser.ParseSource(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{g: g})
	}
	// A block that needs a rescan only because a successor's N-DELAYED
	// moved is rare: about one run in a hundred of these shapes has one.
	for seed := int64(0); seed < 100; seed++ {
		progs = append(progs,
			program{g: progen.Generate(progen.Params{Seed: seed, Stmts: 30})},
			program{g: progen.Generate(progen.Params{Seed: seed, Stmts: 40, Irreducible: true})},
			program{
				g:   progen.Generate(progen.Params{Seed: seed, Stmts: 150, Vars: 5, Irreducible: true}),
				hot: func(n *cfg.Node) bool { return n.ID%3 != 0 },
			})
	}
	skipped := 0
	for _, p := range progs {
		for _, mode := range []Mode{ModeDead, ModeFaint} {
			skipped += settledSkips(t, p.g, mode, p.hot)
		}
	}
	if skipped == 0 {
		t.Fatal("no delayability solve let the sink skip a block; the check is vacuous")
	}
}

// settledSkips runs runIncremental's rounds on a copy of g, checking
// every block each delayability solve lets the sink skip, and returns
// how many such skips it checked.
func settledSkips(t *testing.T, g *cfg.Graph, mode Mode, hot HotPredicate) int {
	t.Helper()
	out := g.Clone()
	cfg.SplitCriticalEdges(out)
	hot = effectiveHot(out, hot)
	fp := analysis.NewFootprints(out)
	delay := analysis.NewDelaySolver(out, fp)
	defer delay.Release()
	delay.SetRegion(hot)
	elim := analysis.NewElimSolver(out, fp, mode == ModeFaint)
	pendElim, pendSink := newDirtySet(out.NumNodes()), newDirtySet(out.NumNodes())
	onChange := func(n *cfg.Node, old []ir.Stmt, ops []int32) {
		fp.SyncRewrite(n, old, ops)
		pendElim.add(n.ID)
		pendSink.add(n.ID)
	}
	ni, xi := bitvec.New(fp.Patterns.Len()), bitvec.New(fp.Patterns.Len())
	skipped := 0
	for round := 1; round <= roundCap(out); round++ {
		e := eliminateSolved(out, elim.Solve(pendElim.take()), hot, onChange, nil)
		dres := delay.Solve(pendSink.take())
		for _, n := range out.Nodes() {
			if dres.NeedsScan(n.ID) {
				continue
			}
			skipped++
			dres.Inserts(n, ni, xi)
			if ld := dres.Locals.LocDelayed[n.ID]; !ni.IsZero() || !xi.Equal(ld) {
				t.Fatalf("%s %v round %d: skipped block %s is not stable: N-INSERT %s, X-INSERT %s, LOCDELAYED %s",
					g.Name, mode, round, n.Label, ni, xi, ld)
			}
		}
		if s := applySink(out, fp, dres, onChange, nil); !e.Changed() && !s.Changed() {
			return skipped
		}
	}
	t.Fatalf("%s %v: no fixpoint within %d rounds", g.Name, mode, roundCap(out))
	return 0
}
