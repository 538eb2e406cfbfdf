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
// Resolution is cached per block, not per statement: hashing an
// ir.Stmt interface key goes through reflection-driven typehash and
// costs as much as re-resolving. A block's entry is validated by its
// statement-slice header (backing-array pointer + length): every
// rewrite in this repository either allocates a fresh statement slice
// or shrinks one in place, so an unchanged header implies unchanged
// statements. Holding head pins the cached backing array, so a later
// allocation can never alias it.
type Footprints struct {
	Vars *ir.VarTable
	// Patterns is nil for users that only eliminate; statements then
	// resolve to no pattern.
	Patterns *ir.PatternTable

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

// NewFootprints creates the statement index over the given universes,
// which must cover every statement of every version of the program it
// sees. Blocks are resolved on first use.
func NewFootprints(vars *ir.VarTable, pt *ir.PatternTable) *Footprints {
	return &Footprints{Vars: vars, Patterns: pt}
}

// footprintsOf indexes g over a caller-built pattern table, which may
// name variables g lacks: the variable universe adds them.
func footprintsOf(g *cfg.Graph, pt *ir.PatternTable) *Footprints {
	vars := g.CollectVars()
	for pi := 0; pi < pt.Len(); pi++ {
		vars.AddStmt(pt.MakeAssign(pi))
	}
	return NewFootprints(vars, pt)
}

// block returns the resolved footprints of node, rebuilding them if the
// block was rewritten.
func (fp *Footprints) block(node *cfg.Node) *blockFootprint {
	id := int(node.ID)
	if id >= len(fp.blocks) {
		grown := make([]blockFootprint, id+1+len(fp.blocks)/2)
		copy(grown, fp.blocks)
		fp.blocks = grown
	}
	c := &fp.blocks[id]
	stmts := node.Stmts
	if c.holds(stmts) {
		return c
	}
	c.info, c.uses = c.info[:0], c.uses[:0]
	for _, s := range stmts {
		c.info, c.uses = fp.resolve(s, -1, c.info, c.uses)
	}
	c.setHead(stmts)
	return c
}

// resolve appends statement s's footprint to info and its used
// variables to uses. pat, when non-negative, is s's pattern index,
// already known; otherwise the pattern table is consulted.
func (fp *Footprints) resolve(s ir.Stmt, pat int32, info []stmtFootprint, uses []int32) ([]stmtFootprint, []int32) {
	e := stmtFootprint{def: -1, pat: pat, us: int32(len(uses))}
	if d, ok := ir.Def(s); ok {
		e.def = int32(fp.Vars.MustIndex(d))
		if pat < 0 && fp.Patterns != nil {
			if pi, ok := fp.Patterns.IndexOfStmt(s); ok {
				e.pat = int32(pi)
			}
		}
	}
	ir.Uses(s, func(u ir.Var) { uses = append(uses, int32(fp.Vars.MustIndex(u))) })
	e.ue = int32(len(uses))
	return append(info, e), uses
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
// next read re-resolves only the inserted statements. old is the
// pre-rewrite statement slice; ops describes n.Stmts entry by entry —
// op >= 0 kept former statement old[op], op < 0 inserted an instance
// of pattern ^op (Patterns.MakeAssign). An entry that does not match
// old (because some unsynced path rewrote the block earlier) is left
// to lazy re-resolution: the sync is purely an optimization.
func (fp *Footprints) SyncRewrite(n *cfg.Node, old []ir.Stmt, ops []int32) {
	id := int(n.ID)
	if id >= len(fp.blocks) {
		fp.block(n) // grows the table and resolves directly
		return
	}
	c := &fp.blocks[id]
	if !c.holds(old) {
		return
	}
	info, uses := fp.rbInfo[:0], fp.rbUses[:0]
	for si, op := range ops {
		if op < 0 {
			info, uses = fp.resolve(n.Stmts[si], ^op, info, uses)
			continue
		}
		e := c.info[op]
		start := len(uses)
		uses = append(uses, c.uses[e.us:e.ue]...)
		e.us, e.ue = int32(start), int32(len(uses))
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
