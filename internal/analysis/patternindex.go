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
// then a handful of word-parallel ORs.
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
	Patterns *ir.PatternTable

	defBlocks map[ir.Var]*bitvec.Vector
	useBlocks map[ir.Var]*bitvec.Vector

	// blocks caches, per node, the resolved info of every statement
	// (parallel to n.Stmts). Resolution walks the statement's
	// definition and uses directly rather than memoizing per
	// statement value: hashing an ir.Stmt interface key goes through
	// reflection-driven typehash and costs as much as re-resolving,
	// so the per-block cache is the only memo layer.
	blocks []blockResolve

	// tmpl lazily caches, per pattern, the resolution of a canonical
	// inserted instance (the blocking vectors its definition and
	// operands select); SyncRewrite stitches rewritten blocks from
	// these templates and the old cache instead of re-resolving
	// statements through the pattern table's key strings.
	tmpl [][]*bitvec.Vector

	// rbInfo/rbVecs are SyncRewrite's build buffers, swapped with the
	// target block's slices on commit.
	rbInfo []stmtPatternInfo
	rbVecs []*bitvec.Vector
}

// blockResolve is the per-node statement cache. Validity is judged by
// the slice header (backing-array pointer + length): every rewrite in
// this repository either allocates a fresh statement slice or shrinks
// one in place, so an unchanged header implies unchanged statements.
// Holding head pins the cached backing array, so a later allocation
// can never alias it. vecs pools the blocking-vector lists of the
// block's statements (info entries hold offsets into it), so a rebuild
// reallocates nothing once capacities are warm.
type blockResolve struct {
	head *ir.Stmt
	n    int
	info []stmtPatternInfo
	vecs []*bitvec.Vector
}

// stmtPatternInfo is one statement's resolution: its own pattern index
// (-1 if not a tabled pattern) and the half-open range [bs:be) of the
// owning blockResolve's vecs holding the distinct blocking vectors its
// definition and uses select.
type stmtPatternInfo struct {
	pat    int32
	bs, be int32
}

// blockInfo returns the resolved statement cache of node, rebuilding
// it if the block was rewritten.
func (ix *PatternIndex) blockInfo(node *cfg.Node) *blockResolve {
	id := int(node.ID)
	if id >= len(ix.blocks) {
		grown := make([]blockResolve, id+1+len(ix.blocks)/2)
		copy(grown, ix.blocks)
		ix.blocks = grown
	}
	c := &ix.blocks[id]
	stmts := node.Stmts
	if c.n == len(stmts) && (c.n == 0 || c.head == &stmts[0]) {
		return c
	}
	c.info = c.info[:0]
	c.vecs = c.vecs[:0]
	// The closures are hoisted out of the statement loop (capturing
	// start by reference) so each rebuild allocates at most two
	// closure cells, not two per statement.
	start := 0
	add := func(bv *bitvec.Vector) {
		if bv == nil {
			return
		}
		for _, have := range c.vecs[start:] {
			if have == bv {
				return
			}
		}
		c.vecs = append(c.vecs, bv)
	}
	addUse := func(u ir.Var) { add(ix.useBlocks[u]) }
	for _, s := range stmts {
		e := stmtPatternInfo{pat: -1}
		if pi, ok := ix.Patterns.IndexOfStmt(s); ok {
			e.pat = int32(pi)
		}
		start = len(c.vecs)
		if d, ok := ir.Def(s); ok {
			add(ix.defBlocks[d])
		}
		ir.Uses(s, addUse)
		e.bs, e.be = int32(start), int32(len(c.vecs))
		c.info = append(c.info, e)
	}
	c.n = len(stmts)
	if c.n > 0 {
		c.head = &stmts[0]
	} else {
		c.head = nil
	}
	return c
}

// template returns the blocking-vector list of an inserted instance of
// pattern pi, building and caching it on first use. An instance of
// α ≡ x := t selects defBlocks[x] for its definition and useBlocks[v]
// for each operand v of t, deduplicated, mirroring blockInfo's
// per-statement resolution exactly.
func (ix *PatternIndex) template(pi int) []*bitvec.Vector {
	if ix.tmpl == nil {
		ix.tmpl = make([][]*bitvec.Vector, ix.Patterns.Len())
	}
	if t := ix.tmpl[pi]; t != nil {
		return t
	}
	t := make([]*bitvec.Vector, 0, 4)
	add := func(bv *bitvec.Vector) {
		if bv == nil {
			return
		}
		for _, have := range t {
			if have == bv {
				return
			}
		}
		t = append(t, bv)
	}
	add(ix.defBlocks[ix.Patterns.Pattern(pi).LHS])
	ir.ExprVars(ix.Patterns.RHSExprAt(pi), func(v ir.Var) { add(ix.useBlocks[v]) })
	ix.tmpl[pi] = t
	return t
}

// SyncRewrite synchronizes n's cached resolution after a rewrite, so
// the next UpdateBlock re-resolves nothing. old is the pre-rewrite
// statement slice; ops describes n.Stmts entry by entry — op >= 0 kept
// former statement old[op], op < 0 inserted an instance of pattern
// ^op. A cache that does not match old (because some unsynced path
// rewrote the block earlier) is left to lazy re-resolution instead.
func (ix *PatternIndex) SyncRewrite(n *cfg.Node, old []ir.Stmt, ops []int32) {
	id := int(n.ID)
	if id >= len(ix.blocks) {
		ix.blockInfo(n) // grows the table and resolves directly
		return
	}
	c := &ix.blocks[id]
	if c.n != len(old) || (c.n > 0 && c.head != &old[0]) {
		return // stale cache: blockInfo will re-resolve on demand
	}
	info := ix.rbInfo[:0]
	vecs := ix.rbVecs[:0]
	for _, op := range ops {
		var e stmtPatternInfo
		start := len(vecs)
		if op >= 0 {
			e = c.info[op]
			vecs = append(vecs, c.vecs[e.bs:e.be]...)
		} else {
			e.pat = ^op
			vecs = append(vecs, ix.template(int(^op))...)
		}
		e.bs, e.be = int32(start), int32(len(vecs))
		info = append(info, e)
	}
	c.info, ix.rbInfo = info, c.info[:0]
	c.vecs, ix.rbVecs = vecs, c.vecs[:0]
	c.n = len(n.Stmts)
	if c.n > 0 {
		c.head = &n.Stmts[0]
	} else {
		c.head = nil
	}
}

// NewPatternIndex builds the blocking index of pt.
func NewPatternIndex(pt *ir.PatternTable) *PatternIndex {
	ix := &PatternIndex{
		Patterns:  pt,
		defBlocks: make(map[ir.Var]*bitvec.Vector),
		useBlocks: make(map[ir.Var]*bitvec.Vector),
	}
	np := pt.Len()
	get := func(m map[ir.Var]*bitvec.Vector, v ir.Var) *bitvec.Vector {
		bv := m[v]
		if bv == nil {
			bv = bitvec.New(np)
			m[v] = bv
		}
		return bv
	}
	for pi := 0; pi < np; pi++ {
		p := pt.Pattern(pi)
		get(ix.defBlocks, p.LHS).Set(pi)
		get(ix.useBlocks, p.LHS).Set(pi)
		for v := range pt.RHSVarsAt(pi) {
			get(ix.defBlocks, v).Set(pi)
		}
	}
	return ix
}

// ForEachPatternStmt calls f(si, pi) for every statement of n that is
// an occurrence of a tabled pattern, in statement order, using the
// per-block cache (no per-statement resolution for unchanged blocks).
func (ix *PatternIndex) ForEachPatternStmt(n *cfg.Node, f func(si, pi int)) {
	c := ix.blockInfo(n)
	for si := range c.info {
		if pat := c.info[si].pat; pat >= 0 {
			f(si, int(pat))
		}
	}
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
	c := ix.blockInfo(n)
	for si := len(c.info) - 1; si >= 0; si-- {
		iv := &c.info[si]
		if pi := int(iv.pat); pi >= 0 && !scratch.Get(pi) {
			ld.Set(pi)
			cands = append(cands, CandEntry{Pat: iv.pat, Stmt: int32(si)})
		}
		for _, bv := range c.vecs[iv.bs:iv.be] {
			scratch.Or(bv)
		}
	}
	l.Cands[n.ID] = cands
	l.LocBlocked[n.ID].CopyFrom(scratch)
}

// Locals computes the local predicates of every block of g over the
// index's pattern universe.
func (ix *PatternIndex) Locals(g *cfg.Graph) *Locals {
	numNodes := g.NumNodes()
	np := ix.Patterns.Len()
	l := &Locals{
		Patterns:   ix.Patterns,
		LocDelayed: make([]*bitvec.Vector, numNodes),
		LocBlocked: make([]*bitvec.Vector, numNodes),
		Cands:      make([][]CandEntry, numNodes),
	}
	var arena bitvec.Arena
	for _, n := range g.Nodes() {
		l.LocDelayed[n.ID] = arena.New(np)
		l.LocBlocked[n.ID] = arena.New(np)
	}
	scratch := bitvec.New(np)
	for _, n := range g.Nodes() {
		ix.UpdateBlock(l, n, scratch)
	}
	return l
}
