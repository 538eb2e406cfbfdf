package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// PatternIndex inverts a pattern table's blocking relation: instead of
// asking "does statement s block pattern α?" once per (statement,
// pattern) pair — the O(i·p) inner loop that dominated ComputeLocals —
// it precomputes, per variable, the bit-vector of patterns blocked by
// defining or by using that variable. A statement's full blocked set is
// then a handful of word-parallel ORs over its footprint.
//
// The inversion follows Definition 3.1's discussion: s blocks α ≡ x:=t
// iff s modifies an operand of t, modifies x, or uses x. So
//
//	defBlocks[v] = { α : v ∈ Vars(t) ∨ v = x }   (s defines v)
//	useBlocks[v] = { α : v = x }                  (s uses v)
//
// The index is built once per pattern universe and shared by every
// locals computation over it.
type PatternIndex struct {
	fp *Footprints

	// defBlocks and useBlocks are indexed by variable index; nil
	// where the variable blocks no pattern.
	defBlocks, useBlocks []*bitvec.Vector
}

// NewPatternIndex builds the blocking index of fp's pattern table,
// resolving statements through fp.
func NewPatternIndex(fp *Footprints) *PatternIndex {
	pt := fp.Patterns
	np := pt.Len()
	ix := &PatternIndex{
		fp:        fp,
		defBlocks: make([]*bitvec.Vector, fp.Vars.Len()),
		useBlocks: make([]*bitvec.Vector, fp.Vars.Len()),
	}
	get := func(m []*bitvec.Vector, v ir.Var) *bitvec.Vector {
		vi := fp.Vars.MustIndex(v)
		if m[vi] == nil {
			m[vi] = bitvec.New(np)
		}
		return m[vi]
	}
	for pi := 0; pi < np; pi++ {
		p := pt.Pattern(pi)
		get(ix.defBlocks, p.LHS).Set(pi)
		get(ix.useBlocks, p.LHS).Set(pi)
		ir.ExprVars(pt.RHSExprAt(pi), func(v ir.Var) { get(ix.defBlocks, v).Set(pi) })
	}
	return ix
}

// UpdateBlock recomputes the local predicates of block n in place
// (LocDelayed, LocBlocked, Cands), with scratch as the blocked-below
// sweep vector (Patterns.Len() bits; clobbered). The slices of l must
// already be sized for n.ID.
func (ix *PatternIndex) UpdateBlock(l *Locals, n *cfg.Node, scratch *bitvec.Vector) {
	ld := l.LocDelayed[n.ID]
	ld.ClearAll()
	cands := l.Cands[n.ID][:0]
	// One backward sweep per block: a pattern occurrence is a
	// candidate iff no later instruction of the block blocks it;
	// scratch tracks "blocked by something at or after the current
	// position". After the sweep scratch is exactly LOCBLOCKED.
	// Every occurrence blocks its own pattern, so each pattern
	// contributes at most one candidate (its last occurrence).
	scratch.ClearAll()
	c := ix.fp.block(n)
	for si := len(c.info) - 1; si >= 0; si-- {
		e := &c.info[si]
		if pi := int(e.pat); pi >= 0 && !scratch.Get(pi) {
			ld.Set(pi)
			cands = append(cands, CandEntry{Pat: e.pat, Stmt: int32(si)})
		}
		if e.def >= 0 {
			if bv := ix.defBlocks[e.def]; bv != nil {
				scratch.Or(bv)
			}
		}
		for _, u := range c.uses[e.us:e.ue] {
			if bv := ix.useBlocks[u]; bv != nil {
				scratch.Or(bv)
			}
		}
	}
	l.Cands[n.ID] = cands
	l.LocBlocked[n.ID].CopyFrom(scratch)
}

// Locals computes the local predicates of every block of g over the
// index's pattern universe.
func (ix *PatternIndex) Locals(g *cfg.Graph) *Locals {
	numNodes := g.NumNodes()
	np := ix.fp.Patterns.Len()
	l := &Locals{
		Patterns:   ix.fp.Patterns,
		LocDelayed: bitvec.Rows(numNodes, np),
		LocBlocked: bitvec.Rows(numNodes, np),
		Cands:      make([][]CandEntry, numNodes),
	}
	scratch := bitvec.New(np)
	for _, n := range g.Nodes() {
		ix.UpdateBlock(l, n, scratch)
	}
	return l
}
