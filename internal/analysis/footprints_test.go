package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/progen"
)

// randomEdit rewrites n in the ops encoding of Footprints.SyncRewrite:
// each statement is kept with probability 2/3, and instances of random
// patterns are inserted between them. An edit without insertions may
// compact the block in place, as elimination does; otherwise it
// allocates a fresh slice, as sinking does.
func randomEdit(rng *rand.Rand, n *cfg.Node, pt *ir.PatternTable) (old []ir.Stmt, ops []int32) {
	old = n.Stmts
	if rng.Intn(3) == 0 {
		kept := n.Stmts[:0]
		for si, s := range n.Stmts {
			if rng.Intn(3) > 0 {
				kept = append(kept, s)
				ops = append(ops, int32(si))
			}
		}
		n.Stmts = kept
		return old, ops
	}
	var stmts []ir.Stmt
	insert := func() {
		if rng.Intn(3) == 0 {
			pi := rng.Intn(pt.Len())
			stmts = append(stmts, pt.MakeAssign(pi))
			ops = append(ops, ^int32(pi))
		}
	}
	for si, s := range old {
		insert()
		if rng.Intn(3) > 0 {
			stmts = append(stmts, s)
			ops = append(ops, int32(si))
		}
	}
	insert()
	n.Stmts = stmts
	return old, ops
}

// checkFootprints compares the cached entry of every block of g that fp
// holds with a freshly built index, naming the first differing block
// and statement. When synced is set, every block must be held: a
// correct splice leaves nothing to rebuild.
func checkFootprints(t *testing.T, step string, g *cfg.Graph, fp *Footprints, synced bool) {
	t.Helper()
	fresh := NewFootprints(fp.Vars, fp.Patterns)
	for _, n := range g.Nodes() {
		c := &fp.blocks[n.ID]
		if !c.holds(n.Stmts) {
			if synced {
				t.Fatalf("%s: block %s left stale by the sync", step, n.Label)
			}
			c = fp.block(n)
		}
		want := fresh.block(n)
		for si, s := range n.Stmts {
			got, exp := c.info[si], want.info[si]
			gotUses, expUses := c.uses[got.us:got.ue], want.uses[exp.us:exp.ue]
			if got.def != exp.def || got.pat != exp.pat || !slices.Equal(gotUses, expUses) {
				t.Fatalf("%s: block %s stmt %d (%s): spliced def=%d pat=%d uses=%v, rebuilt def=%d pat=%d uses=%v",
					step, n.Label, si, s, got.def, got.pat, gotUses, exp.def, exp.pat, expUses)
			}
		}
	}
}

// TestFootprintsSyncMatchesRebuild drives the shared statement index
// through random rewrites of progen programs: after every SyncRewrite
// each block's spliced facts must equal those a fresh index resolves.
// One rewrite per program happens behind the index's back, so the next
// sync does not match the block and the index falls back to a lazy
// rebuild.
func TestFootprintsSyncMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 40, Vars: 5, LoopProb: 0.15, BranchProb: 0.25, Irreducible: seed%3 == 0})
		pt := g.CollectPatterns()
		if pt.Len() == 0 {
			continue
		}
		fp := NewFootprints(g.CollectVars(), pt)
		for _, n := range g.Nodes() {
			fp.block(n)
		}
		rng := rand.New(rand.NewSource(seed))
		nodes := g.Nodes()
		for step := 0; step < 40; step++ {
			n := nodes[rng.Intn(len(nodes))]
			old, ops := randomEdit(rng, n, pt)
			fp.SyncRewrite(n, old, ops)
			checkFootprints(t, fmt.Sprintf("seed %d step %d", seed, step), g, fp, true)
		}

		// An unsynced rewrite (a fresh copy of the statements) leaves the
		// cached entry describing the old slice, so the next sync's old
		// does not match it and the splice is skipped.
		var n *cfg.Node
		for _, m := range nodes {
			if len(m.Stmts) > 0 {
				n = m
				break
			}
		}
		if n == nil {
			continue
		}
		n.Stmts = slices.Clone(n.Stmts)
		old, ops := randomEdit(rng, n, pt)
		fp.SyncRewrite(n, old, ops)
		if fp.blocks[n.ID].holds(n.Stmts) {
			t.Fatalf("seed %d: sync spliced block %s although the index did not hold its old statements", seed, n.Label)
		}
		checkFootprints(t, fmt.Sprintf("seed %d after an unsynced rewrite", seed), g, fp, false)
	}
}
