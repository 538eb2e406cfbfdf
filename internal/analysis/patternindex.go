package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
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

// NewPatternIndex builds the blocking index of fp's pattern table from
// the patterns' own footprints: no variable lookup.
func NewPatternIndex(fp *Footprints) *PatternIndex {
	np := fp.Patterns.Len()
	ix := &PatternIndex{
		fp:        fp,
		defBlocks: make([]*bitvec.Vector, fp.Vars.Len()),
		useBlocks: make([]*bitvec.Vector, fp.Vars.Len()),
	}
	get := func(m []*bitvec.Vector, vi int32) *bitvec.Vector {
		if m[vi] == nil {
			m[vi] = bitvec.New(np)
		}
		return m[vi]
	}
	for pi, p := range fp.pats {
		get(ix.defBlocks, p.def).Set(pi)
		get(ix.useBlocks, p.def).Set(pi)
		for _, vi := range fp.patUses[p.us:p.ue] {
			get(ix.defBlocks, vi).Set(pi)
		}
	}
	return ix
}

// UpdateBlock recomputes the local predicates of block n in place
// (LocDelayed, LocBlocked, Cands). The slices of l must already be
// sized for n.ID.
func (ix *PatternIndex) UpdateBlock(l *Locals, n *cfg.Node) {
	ld, lb := l.LocDelayed[n.ID], l.LocBlocked[n.ID]
	ld.ClearAll()
	cands := l.Cands[n.ID][:0]
	// One backward sweep per block: a pattern occurrence is a
	// candidate iff no later instruction of the block blocks it;
	// lb tracks "blocked by something at or after the current
	// position", so after the sweep it is exactly LOCBLOCKED.
	// Every occurrence blocks its own pattern, so each pattern
	// contributes at most one candidate (its last occurrence).
	lb.ClearAll()
	c := ix.fp.block(n)
	for si := len(c.info) - 1; si >= 0; si-- {
		e := &c.info[si]
		if pi := int(e.pat); pi >= 0 && !lb.Get(pi) {
			ld.Set(pi)
			cands = append(cands, CandEntry{Pat: e.pat, Stmt: int32(si)})
		}
		if e.def >= 0 {
			if bv := ix.defBlocks[e.def]; bv != nil {
				lb.Or(bv)
			}
		}
		for _, u := range c.uses[e.us:e.ue] {
			if bv := ix.useBlocks[u]; bv != nil {
				lb.Or(bv)
			}
		}
	}
	l.Cands[n.ID] = cands
}

// Locals computes the local predicates of every block of g over the
// index's pattern universe into the given LOCDELAYED and LOCBLOCKED
// rows, one per node. UpdateBlock overwrites both rows of every block,
// so they may come dirty from a reused bitvec.Slab. Every block's
// candidate list starts in one slab, capped at the block's statement
// count: each candidate is one of its statements.
func (ix *PatternIndex) Locals(g *cfg.Graph, ld, lb []*bitvec.Vector) *Locals {
	l := &Locals{
		Patterns:   ix.fp.Patterns,
		LocDelayed: ld,
		LocBlocked: lb,
		Cands:      make([][]CandEntry, g.NumNodes()),
	}
	cands := make([]CandEntry, g.NumStmts())
	for _, n := range g.Nodes() {
		k := len(n.Stmts)
		l.Cands[n.ID], cands = cands[:0:k], cands[k:]
		ix.UpdateBlock(l, n)
	}
	return l
}
