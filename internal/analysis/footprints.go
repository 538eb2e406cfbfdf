package analysis

import (
	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// Footprints is the per-block statement index both solvers read: for
// every statement, the index of the variable it defines, the indices
// of the variables it uses, and the index of the assignment pattern it
// instantiates. Definition 3.1's blocking relation (Table 2's
// LOCDELAYED/LOCBLOCKED) and Table 1's dead and faint steps read
// nothing else, so one index over fixed variable and pattern universes
// serves both.
//
// Every pattern carries its own footprint (its target and operand
// indices), resolved once when it is numbered, so an instance of a
// known pattern is resolved by copying that footprint: no variable
// lookup.
//
// Resolution is cached per block, not per statement: hashing an
// ir.Stmt interface key goes through reflection-driven typehash and
// costs as much as re-resolving. A block's entry is validated by its
// statement-slice header (backing-array pointer + length): every
// rewrite in this repository either allocates a fresh statement slice
// or shrinks one in place, so an unchanged header implies unchanged
// statements. Holding head pins the cached backing array, so a later
// allocation can never alias it.
type Footprints struct {
	Vars     *ir.VarTable
	Patterns *ir.PatternTable

	// pats[pi] is pattern pi's footprint (pat = pi), its operand
	// indices in patUses.
	pats    []stmtFootprint
	patUses []int32

	blocks []blockFootprint

	// rbInfo/rbUses are SyncRewrite's build buffers, swapped with the
	// target block's slices on commit.
	rbInfo []stmtFootprint
	rbUses []int32
}

// stmtFootprint is one statement's resolution: the index of its
// defined variable (-1 if none; only assignments define one), its
// pattern index (-1 if it is not an occurrence of a tabled pattern),
// and the half-open range [us:ue) of the owning block's uses holding
// its used-variable indices (one per occurrence, so possibly with
// repeats).
type stmtFootprint struct {
	def, pat int32
	us, ue   int32
}

// blockFootprint caches the footprints of one node's statements. uses
// pools the used-variable indices of all of them, so a rebuild
// reallocates nothing once capacities are warm.
type blockFootprint struct {
	head *ir.Stmt
	n    int
	info []stmtFootprint
	uses []int32
}

// NewFootprints indexes g in one walk: it numbers the variables and
// the assignment patterns in first-occurrence order (block ID order,
// then statement order; a statement's target before its operands),
// exactly the order g.CollectVars and g.CollectPatterns give, and
// resolves every block's statements into two slabs sized by the
// statement count. The universes cover g as it is now; the index
// resolves later versions of g lazily, so they must not name a
// variable or pattern g lacks.
func NewFootprints(g *cfg.Graph) *Footprints {
	n := g.NumStmts()
	// Generated programs hold about 0.6 patterns per statement.
	fp := &Footprints{
		Vars:     ir.NewVarTable(),
		Patterns: ir.NewPatternTable(n / 2),
		blocks:   make([]blockFootprint, g.NumNodes()),
	}
	info := make([]stmtFootprint, 0, n)
	uses := make([]int32, 0, 2*n)
	for _, node := range g.Nodes() {
		i0, u0 := len(info), len(uses)
		for _, s := range node.Stmts {
			info, uses = fp.number(s, info, uses)
		}
		// Capacity-capped, so a rebuild that outgrows its block
		// reallocates instead of writing into the next one. Use ranges
		// count from the block's first use.
		c := &fp.blocks[node.ID]
		c.info = info[i0:len(info):len(info)]
		c.uses = uses[u0:len(uses):len(uses)]
		for i := range c.info {
			c.info[i].us -= int32(u0)
			c.info[i].ue -= int32(u0)
		}
		c.setHead(node.Stmts)
	}
	return fp
}

// number appends statement s's footprint to info and its used
// variables to uses, adding s's variables and pattern to the universes
// where they are new. A new pattern takes s's footprint as its own.
func (fp *Footprints) number(s ir.Stmt, info []stmtFootprint, uses []int32) ([]stmtFootprint, []int32) {
	e := stmtFootprint{def: -1, pat: -1, us: int32(len(uses))}
	var rhs ir.Expr
	switch st := s.(type) {
	case ir.Assign:
		e.def = int32(fp.Vars.Add(st.LHS))
		rhs = st.RHS
	case ir.Out:
		rhs = st.Arg
	case ir.Branch:
		rhs = st.Cond
	}
	uses = appendVarIndices(uses, rhs, fp.Vars)
	e.ue = int32(len(uses))
	if e.def >= 0 {
		e.pat = int32(fp.Patterns.Add(s.(ir.Assign)))
		if int(e.pat) == len(fp.pats) {
			var p stmtFootprint
			p, fp.patUses = moveUses(e, uses[e.us:e.ue], fp.patUses)
			fp.pats = append(fp.pats, p)
		}
	}
	return append(info, e), uses
}

// appendVarIndices appends the index of every variable occurrence of e
// to dst, in ir.ExprVars order, adding new variables to vars.
func appendVarIndices(dst []int32, e ir.Expr, vars *ir.VarTable) []int32 {
	switch x := e.(type) {
	case ir.VarRef:
		return append(dst, int32(vars.Add(x.Name)))
	case ir.Unary:
		return appendVarIndices(dst, x.X, vars)
	case ir.Binary:
		return appendVarIndices(appendVarIndices(dst, x.L, vars), x.R, vars)
	}
	return dst
}

// moveUses returns e with its use range re-pointed at the end of dst,
// where it appends src.
func moveUses(e stmtFootprint, src, dst []int32) (stmtFootprint, []int32) {
	e.us = int32(len(dst))
	dst = append(dst, src...)
	e.ue = int32(len(dst))
	return e, dst
}

// block returns the resolved footprints of node, rebuilding them if the
// block was rewritten.
func (fp *Footprints) block(node *cfg.Node) *blockFootprint {
	c := &fp.blocks[node.ID]
	stmts := node.Stmts
	if c.holds(stmts) {
		return c
	}
	c.info, c.uses = c.info[:0], c.uses[:0]
	for _, s := range stmts {
		c.info, c.uses = fp.resolve(s, c.info, c.uses)
	}
	c.setHead(stmts)
	return c
}

// resolve appends statement s's footprint to info and its used
// variables to uses. An instance of a tabled pattern copies the
// pattern's footprint; any other statement is resolved through the
// variable table.
func (fp *Footprints) resolve(s ir.Stmt, info []stmtFootprint, uses []int32) ([]stmtFootprint, []int32) {
	var e stmtFootprint
	if pi, ok := fp.Patterns.IndexOfStmt(s); ok {
		p := fp.pats[pi]
		e, uses = moveUses(p, fp.patUses[p.us:p.ue], uses)
	} else {
		e, uses = fp.lookup(s, uses)
	}
	return append(info, e), uses
}

// lookup resolves statement s, which is no pattern's instance, through
// the variable table, appending its used variables to uses.
func (fp *Footprints) lookup(s ir.Stmt, uses []int32) (stmtFootprint, []int32) {
	e := stmtFootprint{def: -1, pat: -1, us: int32(len(uses))}
	if d, ok := ir.Def(s); ok {
		e.def = int32(fp.Vars.MustIndex(d))
	}
	ir.Uses(s, func(u ir.Var) { uses = append(uses, int32(fp.Vars.MustIndex(u))) })
	e.ue = int32(len(uses))
	return e, uses
}

// holds reports whether c was resolved from stmts, judged by the slice
// header.
func (c *blockFootprint) holds(stmts []ir.Stmt) bool {
	return c.n == len(stmts) && (c.n == 0 || c.head == &stmts[0])
}

func (c *blockFootprint) setHead(stmts []ir.Stmt) {
	c.n = len(stmts)
	if c.n > 0 {
		c.head = &stmts[0]
	} else {
		c.head = nil
	}
}

// SyncRewrite splices n's cached footprints along a rewrite, so the
// next read re-resolves nothing. old is the pre-rewrite statement
// slice; ops describes n.Stmts entry by entry — op >= 0 kept former
// statement old[op], op < 0 inserted an instance of pattern ^op
// (Patterns.MakeAssign), which takes the pattern's footprint. An entry
// that does not match old (because some unsynced path rewrote the
// block earlier) is left to lazy re-resolution: the sync is purely an
// optimization.
func (fp *Footprints) SyncRewrite(n *cfg.Node, old []ir.Stmt, ops []int32) {
	c := &fp.blocks[n.ID]
	if !c.holds(old) {
		return
	}
	info, uses := fp.rbInfo[:0], fp.rbUses[:0]
	for _, op := range ops {
		var e stmtFootprint
		if op < 0 {
			p := fp.pats[^op]
			e, uses = moveUses(p, fp.patUses[p.us:p.ue], uses)
		} else {
			e = c.info[op]
			e, uses = moveUses(e, c.uses[e.us:e.ue], uses)
		}
		info = append(info, e)
	}
	c.info, fp.rbInfo = info, c.info[:0]
	c.uses, fp.rbUses = uses, c.uses[:0]
	c.setHead(n.Stmts)
}

// ForEachPattern calls f(pi) for every statement of n that is an
// occurrence of a tabled pattern pi, in statement order.
func (fp *Footprints) ForEachPattern(n *cfg.Node, f func(pi int)) {
	for _, e := range fp.block(n).info {
		if e.pat >= 0 {
			f(int(e.pat))
		}
	}
}
