package analysis

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/parser"
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

// lookupFootprint resolves statement s by table lookups, one per
// variable occurrence and one per pattern: the oracle the index's
// footprints are checked against.
func lookupFootprint(vars *ir.VarTable, pt *ir.PatternTable, s ir.Stmt) (def, pat int32, uses []int32) {
	def, pat = -1, -1
	if d, ok := ir.Def(s); ok {
		def = int32(vars.MustIndex(d))
	}
	if pi, ok := pt.IndexOfStmt(s); ok {
		pat = int32(pi)
	}
	ir.Uses(s, func(v ir.Var) { uses = append(uses, int32(vars.MustIndex(v))) })
	return def, pat, uses
}

// checkFootprints compares the cached entry of every block of g that fp
// holds with the lookup oracle, naming the first differing block and
// statement. When synced is set, every block must be held: a correct
// splice (or the index's own walk) leaves nothing to rebuild.
func checkFootprints(t *testing.T, step string, g *cfg.Graph, fp *Footprints, synced bool) {
	t.Helper()
	for _, n := range g.Nodes() {
		if held := int(n.ID) < len(fp.blocks) && fp.blocks[n.ID].holds(n.Stmts); !held && synced {
			t.Fatalf("%s: block %s left stale", step, n.Label)
		}
		c := fp.block(n)
		if len(c.info) != len(n.Stmts) {
			t.Fatalf("%s: block %s: %d footprints for %d statements", step, n.Label, len(c.info), len(n.Stmts))
		}
		for si, s := range n.Stmts {
			got := c.info[si]
			gotUses := c.uses[got.us:got.ue]
			def, pat, uses := lookupFootprint(fp.Vars, fp.Patterns, s)
			if got.def != def || got.pat != pat || !slices.Equal(gotUses, uses) {
				t.Fatalf("%s: block %s stmt %d (%s): index def=%d pat=%d uses=%v, lookup def=%d pat=%d uses=%v",
					step, n.Label, si, s, got.def, got.pat, gotUses, def, pat, uses)
			}
		}
	}
}

// checkPatternFootprints compares every pattern's own footprint with
// the lookup oracle's resolution of an instance of it.
func checkPatternFootprints(t *testing.T, name string, fp *Footprints) {
	t.Helper()
	if len(fp.pats) != fp.Patterns.Len() {
		t.Fatalf("%s: %d pattern footprints for %d patterns", name, len(fp.pats), fp.Patterns.Len())
	}
	for pi, p := range fp.pats {
		def, pat, uses := lookupFootprint(fp.Vars, fp.Patterns, fp.Patterns.MakeAssign(pi))
		if p.def != def || p.pat != pat || !slices.Equal(fp.patUses[p.us:p.ue], uses) {
			t.Fatalf("%s: pattern %d (%s): footprint def=%d pat=%d uses=%v, lookup def=%d pat=%d uses=%v",
				name, pi, fp.Patterns.Pattern(pi), p.def, p.pat, fp.patUses[p.us:p.ue], def, pat, uses)
		}
	}
}

// footprintPrograms is the index's test set: the corpus, structured
// and irreducible generated programs, and one program whose variables
// span more than one 64-bit word.
func footprintPrograms(t *testing.T) map[string]*cfg.Graph {
	t.Helper()
	progs := map[string]*cfg.Graph{}
	paths, err := filepath.Glob("../../testdata/corpus/*.while")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v, %d files", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := parser.ParseSource(filepath.Base(path), string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs[path] = g
	}
	for seed := int64(0); seed < 12; seed++ {
		p := progen.Params{Seed: seed, Stmts: 120, Vars: 6, LoopProb: 0.15, BranchProb: 0.25, Irreducible: seed%2 == 1}
		progs[fmt.Sprintf("progen seed %d irreducible %v", seed, p.Irreducible)] = progen.Generate(p)
	}
	wide := progen.Generate(progen.Params{Seed: 7, Stmts: 1500, Vars: 150})
	if n := wide.CollectVars().Len(); n <= 64 {
		t.Fatalf("wide program has %d variables, want more than 64", n)
	}
	progs["progen 150 vars"] = wide
	return progs
}

// TestFootprintsWalkMatchesCollect: the one-walk index numbers
// variables and patterns exactly as CollectVars and CollectPatterns
// do, and every statement's and pattern's footprint equals the one
// table lookups give. The caller-built table's path (footprintsOf,
// which resolves blocks lazily) is held to the same oracle.
func TestFootprintsWalkMatchesCollect(t *testing.T) {
	for name, g := range footprintPrograms(t) {
		cfg.SplitCriticalEdges(g)
		fp := NewFootprints(g)
		vars, pt := g.CollectVars(), g.CollectPatterns()
		if fp.Vars.Len() != vars.Len() {
			t.Fatalf("%s: %d variables, CollectVars has %d", name, fp.Vars.Len(), vars.Len())
		}
		for i := 0; i < vars.Len(); i++ {
			if fp.Vars.Var(i) != vars.Var(i) {
				t.Fatalf("%s: variable %d is %s, CollectVars has %s", name, i, fp.Vars.Var(i), vars.Var(i))
			}
		}
		if fp.Patterns.Len() != pt.Len() {
			t.Fatalf("%s: %d patterns, CollectPatterns has %d", name, fp.Patterns.Len(), pt.Len())
		}
		for i := 0; i < pt.Len(); i++ {
			if fp.Patterns.Pattern(i) != pt.Pattern(i) {
				t.Fatalf("%s: pattern %d is %s, CollectPatterns has %s", name, i, fp.Patterns.Pattern(i), pt.Pattern(i))
			}
		}
		checkPatternFootprints(t, name, fp)
		checkFootprints(t, name, g, fp, true)

		byTable := footprintsOf(g, pt)
		checkPatternFootprints(t, name+" (caller-built table)", byTable)
		checkFootprints(t, name+" (caller-built table)", g, byTable, false)
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
		fp := NewFootprints(g)
		pt := fp.Patterns
		if pt.Len() == 0 {
			continue
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

// TestDelaySlabReuseMatchesFresh: the delayability solver does not
// clear the rows it carves from a reused slab, because it writes every
// row before reading it. Rows a larger program left behind, then set to
// all ones (high bits of every last word included), must yield locals,
// candidates and a solution bit-identical to fresh storage.
func TestDelaySlabReuseMatchesFresh(t *testing.T) {
	big := progen.Generate(progen.Params{Seed: 5, Stmts: 900})
	cfg.SplitCriticalEdges(big)
	slab := new(bitvec.Slab)
	bigSolver := newDelaySolver(big, NewFootprints(big), slab)
	bigSolver.Solve(nil)
	rows, bits := 4*big.NumNodes(), bigSolver.locals.Patterns.Len()
	for seed := int64(0); seed < 8; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 60 + 40*int(seed), Irreducible: seed%2 == 1})
		cfg.SplitCriticalEdges(g)
		for _, r := range slab.Rows(rows, 64*((bits+63)/64)) {
			r.SetAll()
		}
		fresh := newDelaySolver(g, NewFootprints(g), new(bitvec.Slab)).Solve(nil)
		reused := newDelaySolver(g, NewFootprints(g), slab).Solve(nil)
		for _, n := range g.Nodes() {
			id := n.ID
			for _, fam := range []struct {
				name        string
				fresh, used *bitvec.Vector
			}{
				{"LOCDELAYED", fresh.Locals.LocDelayed[id], reused.Locals.LocDelayed[id]},
				{"LOCBLOCKED", fresh.Locals.LocBlocked[id], reused.Locals.LocBlocked[id]},
				{"N-DELAYED", fresh.NDelayed[id], reused.NDelayed[id]},
				{"X-DELAYED", fresh.XDelayed[id], reused.XDelayed[id]},
			} {
				if !fam.used.Equal(fam.fresh) {
					t.Fatalf("seed %d block %s: %s from the reused slab %s, fresh %s", seed, n.Label, fam.name, fam.used, fam.fresh)
				}
			}
			if !slices.Equal(reused.Locals.Cands[id], fresh.Locals.Cands[id]) {
				t.Fatalf("seed %d block %s: candidates %v, fresh %v", seed, n.Label, reused.Locals.Cands[id], fresh.Locals.Cands[id])
			}
		}
	}
}
