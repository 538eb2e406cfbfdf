package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// DeadResult is the greatest solution of the dead-variable analysis of
// Table 1, a backward bit-vector problem over the variable universe:
//
//	N-DEAD_ι = ¬USED_ι · (X-DEAD_ι + MOD_ι)
//	X-DEAD_ι = ∏_{ι' ∈ succ(ι)} N-DEAD_ι'
//
// A variable is dead at a point if on every path to the end node every
// right-hand-side occurrence is preceded by a modification. Relevant
// statements (out, branch) count as uses. At the end node everything
// is dead (empty product).
type DeadResult struct {
	Vars *ir.VarTable

	// NDead[id] is N-DEAD at block entry, XDead[id] X-DEAD at block
	// exit, indexed by cfg.NodeID, one bit per variable.
	NDead, XDead []*bitvec.Vector

	Stats dataflow.SolverStats

	// memo resolves statements to variable indices without
	// re-walking expression trees (shared with the producing
	// problem; lazily built for hand-assembled results).
	memo *varMemo

	// scratch backs DeadAssignIndices' backward sweep, allocated on
	// first use and reused across calls.
	scratch *bitvec.Vector

	// scanStamp/scanEpoch, when set by an incremental solve,
	// restrict the elimination walk: nodes whose stamp misses the
	// epoch provably have both their statements and their solution
	// values unchanged since the previous solve, so the previous
	// elimination pass already emptied their dead-assignment sets.
	// A nil scanStamp (full solves, hand-built results) makes no
	// claim and every node must be scanned.
	scanStamp []uint32
	scanEpoch uint32
}

// NeedsScan reports whether the elimination step must examine block
// id, or may skip it because neither its statements nor its solution
// values moved since the previous elimination pass.
func (r *DeadResult) NeedsScan(id cfg.NodeID) bool {
	return r.scanStamp == nil || r.scanStamp[id] == r.scanEpoch
}

// stmtVars is a statement's footprint in the variable universe: the
// index of its defined variable (-1 if none), whether it is an
// assignment (the only statement kind elimination may remove), and
// the half-open range [us:ue) of the owning blockVars' uses slice
// holding its used-variable indices (possibly with repeats).
type stmtVars struct {
	def    int32
	assign bool
	us, ue int32
}

// varMemo resolves statement footprints per block. There is no
// per-statement memo map: hashing an ir.Stmt interface key goes
// through reflection-driven typehash and costs as much as re-walking
// the statement, so the per-node cache (validated by the statement
// slice header, like blockResolve) is the only memo layer.
type varMemo struct {
	vars   *ir.VarTable
	blocks []blockVars

	// rbInfo/rbUses are rebuildBlock's build buffers, swapped with
	// the target block's slices on commit.
	rbInfo []stmtVars
	rbUses []int32
}

// blockVars caches the resolved footprints of one node's statements.
// uses pools the used-variable indices of the block's statements
// (info entries hold offsets into it).
type blockVars struct {
	head *ir.Stmt
	n    int
	info []stmtVars
	uses []int32
}

func newVarMemo(vars *ir.VarTable) *varMemo {
	return &varMemo{vars: vars}
}

// blockInfo returns the resolved footprint cache of node, rebuilding
// it if the block was rewritten.
func (mm *varMemo) blockInfo(node *cfg.Node) *blockVars {
	id := int(node.ID)
	if id >= len(mm.blocks) {
		grown := make([]blockVars, id+1+len(mm.blocks)/2)
		copy(grown, mm.blocks)
		mm.blocks = grown
	}
	c := &mm.blocks[id]
	stmts := node.Stmts
	if c.n == len(stmts) && (c.n == 0 || c.head == &stmts[0]) {
		return c
	}
	c.info = c.info[:0]
	c.uses = c.uses[:0]
	// One closure cell per rebuild, not one per statement.
	addUse := func(u ir.Var) {
		c.uses = append(c.uses, int32(mm.vars.MustIndex(u)))
	}
	for _, s := range stmts {
		v := stmtVars{def: -1}
		if d, ok := ir.Def(s); ok {
			v.def = int32(mm.vars.MustIndex(d))
		}
		if _, ok := s.(ir.Assign); ok {
			v.assign = true
		}
		start := len(c.uses)
		ir.Uses(s, addUse)
		v.us, v.ue = int32(start), int32(len(c.uses))
		c.info = append(c.info, v)
	}
	c.n = len(stmts)
	if c.n > 0 {
		c.head = &stmts[0]
	} else {
		c.head = nil
	}
	return c
}

// rebuildBlock synchronizes node's cached footprints after a rewrite,
// so the next gen/kill recomputation re-walks no expression trees. old
// is the pre-rewrite statement slice; ops describes node.Stmts entry
// by entry — op >= 0 kept former statement old[op], op < 0 inserted a
// statement that is resolved directly (insertions are single
// assignments, so the walk is shallow). A cache that does not match
// old falls back to lazy re-resolution.
func (mm *varMemo) rebuildBlock(node *cfg.Node, old []ir.Stmt, ops []int32) {
	id := int(node.ID)
	if id >= len(mm.blocks) {
		mm.blockInfo(node)
		return
	}
	c := &mm.blocks[id]
	if c.n != len(old) || (c.n > 0 && c.head != &old[0]) {
		return
	}
	info := mm.rbInfo[:0]
	uses := mm.rbUses[:0]
	for si, op := range ops {
		var v stmtVars
		start := len(uses)
		if op >= 0 {
			v = c.info[op]
			uses = append(uses, c.uses[v.us:v.ue]...)
		} else {
			s := node.Stmts[si]
			v.def = -1
			if d, ok := ir.Def(s); ok {
				v.def = int32(mm.vars.MustIndex(d))
			}
			_, v.assign = s.(ir.Assign)
			ir.Uses(s, func(u ir.Var) {
				uses = append(uses, int32(mm.vars.MustIndex(u)))
			})
		}
		v.us, v.ue = int32(start), int32(len(uses))
		info = append(info, v)
	}
	c.info, mm.rbInfo = info, c.info[:0]
	c.uses, mm.rbUses = uses, c.uses[:0]
	c.n = len(node.Stmts)
	if c.n > 0 {
		c.head = &node.Stmts[0]
	} else {
		c.head = nil
	}
}

// step updates v from X-DEAD to N-DEAD across a single instruction, in
// place: the definition makes its target dead (+ MOD), then the uses
// make theirs live (· ¬USED — within one statement the use wins, as in
// x := x+1).
func (mm *varMemo) step(s ir.Stmt, v *bitvec.Vector) {
	if d, ok := ir.Def(s); ok {
		v.Set(mm.vars.MustIndex(d))
	}
	ir.Uses(s, func(u ir.Var) { v.Clear(mm.vars.MustIndex(u)) })
}

type deadProblem struct {
	vars *ir.VarTable
	bits int
	memo *varMemo

	// gen/kill are the per-block composition of the statement steps,
	// indexed by cfg.NodeID: walking a block backward, the earliest
	// statement touching a variable decides its fate — a pure
	// definition makes it dead on entry (gen), a use makes it live
	// (kill); a variable touched by neither passes through. The sets
	// are disjoint by construction, so
	//
	//	N-DEAD = (X-DEAD AND NOT kill) OR gen
	//
	// reproduces the statement walk exactly, one word-parallel pass
	// per block, and hands the solver its gen/kill fast paths.
	gen, kill []*bitvec.Vector
	arena     bitvec.Arena
}

func newDeadProblem(g *cfg.Graph, vars *ir.VarTable) *deadProblem {
	p := &deadProblem{
		vars: vars,
		bits: vars.Len(),
		memo: newVarMemo(vars),
		gen:  make([]*bitvec.Vector, g.NumNodes()),
		kill: make([]*bitvec.Vector, g.NumNodes()),
	}
	for _, n := range g.Nodes() {
		p.gen[n.ID] = p.arena.New(p.bits)
		p.kill[n.ID] = p.arena.New(p.bits)
		p.updateBlock(n)
	}
	return p
}

// updateBlock recomputes n's gen/kill masks from its current
// statements: a forward walk in which the first touch of each variable
// wins, uses before definition within a statement.
func (p *deadProblem) updateBlock(n *cfg.Node) {
	gen, kill := p.gen[n.ID], p.kill[n.ID]
	gen.ClearAll()
	kill.ClearAll()
	c := p.memo.blockInfo(n)
	for i := range c.info {
		info := &c.info[i]
		for _, u := range c.uses[info.us:info.ue] {
			ui := int(u)
			if !gen.Get(ui) && !kill.Get(ui) {
				kill.Set(ui)
			}
		}
		if info.def >= 0 {
			di := int(info.def)
			if !gen.Get(di) && !kill.Get(di) {
				gen.Set(di)
			}
		}
	}
}

func (p *deadProblem) Bits() int                     { return p.bits }
func (p *deadProblem) Direction() dataflow.Direction { return dataflow.Backward }
func (p *deadProblem) Meet() dataflow.Meet           { return dataflow.Intersect }
func (p *deadProblem) Boundary() *bitvec.Vector      { return bitvec.NewAllOnes(p.bits) }
func (p *deadProblem) Top() *bitvec.Vector           { return bitvec.NewAllOnes(p.bits) }

func (p *deadProblem) Transfer(n *cfg.Node, out, in *bitvec.Vector) {
	in.AndNotOrInto(out, p.kill[n.ID], p.gen[n.ID])
}

func (p *deadProblem) GenKill(n *cfg.Node) (gen, kill *bitvec.Vector) {
	return p.gen[n.ID], p.kill[n.ID]
}

// DeadVars solves the dead-variable analysis on g over its full
// variable universe.
func DeadVars(g *cfg.Graph) *DeadResult {
	vars := g.CollectVars()
	prob := newDeadProblem(g, vars)
	sol := dataflow.Solve(g, prob)
	return &DeadResult{Vars: vars, NDead: sol.In, XDead: sol.Out, Stats: sol.Stats, memo: prob.memo}
}

// DeadSolver solves the dead-variable analysis repeatedly on one graph
// whose block contents mutate between solves — the fixpoint driver's
// round structure. The variable universe is fixed at creation; it must
// cover every variable of every version of the program the solver sees
// (a superset is fine: a variable that no longer occurs is simply dead
// everywhere and influences no other bit).
type DeadSolver struct {
	g      *cfg.Graph
	prob   *deadProblem
	solver *dataflow.Solver
	res    DeadResult

	// scanStamp/scanEpoch back DeadResult.NeedsScan's restriction.
	scanStamp []uint32
	scanEpoch uint32
}

// NewDeadSolver creates a solver for g over the given universe.
func NewDeadSolver(g *cfg.Graph, vars *ir.VarTable) *DeadSolver {
	prob := newDeadProblem(g, vars)
	s := &DeadSolver{g: g, prob: prob, solver: dataflow.NewSolver(g, prob)}
	sol := s.solver.Result()
	s.res = DeadResult{Vars: vars, NDead: sol.In, XDead: sol.Out, memo: prob.memo}
	return s
}

// SetCancel installs a cancellation check on the underlying worklist
// solver (see dataflow.Solver.SetCancel). A cancelled Solve returns a
// partial result flagged Stats.Cancelled that must not justify any
// elimination.
func (s *DeadSolver) SetCancel(cancel func() bool) { s.solver.SetCancel(cancel) }

// SetMetrics installs a telemetry sink recording every solve this
// solver performs. A nil sink (the default) collects nothing.
func (s *DeadSolver) SetMetrics(m *obs.SolverMetrics) { s.solver.SetMetrics(m) }

// ArenaStats reports the slab state of the solver's vector arenas (the
// fixpoint storage plus the gen/kill masks).
func (s *DeadSolver) ArenaStats() bitvec.ArenaStats {
	st := s.solver.ArenaStats()
	own := s.prob.arena.Stats()
	st.Slabs += own.Slabs
	st.CapWords += own.CapWords
	st.UsedWords += own.UsedWords
	return st
}

// Solve re-solves after the given blocks changed: their gen/kill masks
// are recomputed, then the fixpoint is re-solved reusing the previous
// round's solution outside the affected region (the dirty blocks and
// their transitive predecessors — deadness flows backward). A nil
// dirty set on a solved instance returns the cached solution; the
// first call always solves in full. The returned result aliases the
// solver's storage and is invalidated by the next Solve.
func (s *DeadSolver) Solve(dirty []cfg.NodeID) *DeadResult {
	for _, id := range dirty {
		s.prob.updateBlock(s.g.Node(id))
	}
	sol := s.solver.Resolve(dirty)
	s.res.Stats = sol.Stats
	s.setScan(sol.Touched)
	return &s.res
}

// SyncRewrite synchronizes the solver's per-block statement cache
// after the caller rewrote block n (see varMemo.rebuildBlock for the
// ops encoding). Purely an optimization: an unsynced rewrite is caught
// by the cache's statement-slice header check and re-resolved lazily.
func (s *DeadSolver) SyncRewrite(n *cfg.Node, old []ir.Stmt, ops []int32) {
	s.prob.memo.rebuildBlock(n, old, ops)
}

// setScan installs the elimination walk's restriction for this round:
// the solver's touched set, which covers both the solution values that
// may have moved and the dirty blocks (statements that changed since
// the last elimination). With no touched-set guarantee the restriction
// is lifted and every node is scanned.
func (s *DeadSolver) setScan(touched []cfg.NodeID) {
	if touched == nil {
		s.res.scanStamp = nil
		return
	}
	if s.scanStamp == nil {
		s.scanStamp = make([]uint32, s.g.NumNodes())
	}
	s.scanEpoch++
	if s.scanEpoch == 0 {
		for i := range s.scanStamp {
			s.scanStamp[i] = 0
		}
		s.scanEpoch = 1
	}
	for _, id := range touched {
		s.scanStamp[id] = s.scanEpoch
	}
	s.res.scanStamp = s.scanStamp
	s.res.scanEpoch = s.scanEpoch
}

func (r *DeadResult) stepper() *varMemo {
	if r.memo == nil {
		r.memo = newVarMemo(r.Vars)
	}
	return r.memo
}

// InstrXDead returns X-DEAD immediately after every statement of block
// n (index i corresponds to n.Stmts[i]); the elimination step removes
// assignment i when the returned vector i has the bit of its LHS set.
func (r *DeadResult) InstrXDead(n *cfg.Node) []*bitvec.Vector {
	mm := r.stepper()
	out := make([]*bitvec.Vector, len(n.Stmts))
	cur := r.XDead[n.ID].Copy()
	for si := len(n.Stmts) - 1; si >= 0; si-- {
		out[si] = cur.Copy()
		mm.step(n.Stmts[si], cur)
	}
	return out
}

// DeadAssignIndices appends to dst the statement indices of every
// assignment of block n whose left-hand side is dead immediately after
// it — the elimination set of Section 5.2 — in decreasing index order.
// Unlike InstrXDead it allocates no per-statement vectors: one
// persistent scratch vector carries the backward sweep.
func (r *DeadResult) DeadAssignIndices(n *cfg.Node, dst []int) []int {
	if len(n.Stmts) == 0 {
		return dst
	}
	mm := r.stepper()
	if r.scratch == nil {
		r.scratch = bitvec.New(r.XDead[n.ID].Len())
	}
	cur := r.scratch
	cur.CopyFrom(r.XDead[n.ID])
	c := mm.blockInfo(n)
	for si := len(c.info) - 1; si >= 0; si-- {
		info := &c.info[si]
		// cur is X-DEAD immediately after statement si.
		if info.assign && info.def >= 0 && cur.Get(int(info.def)) {
			dst = append(dst, si)
		}
		if info.def >= 0 {
			cur.Set(int(info.def))
		}
		for _, u := range c.uses[info.us:info.ue] {
			cur.Clear(int(u))
		}
	}
	return dst
}

// DeadAfter reports whether variable v is dead immediately after
// statement idx of block n.
func (r *DeadResult) DeadAfter(n *cfg.Node, idx int, v ir.Var) bool {
	vi, ok := r.Vars.Index(v)
	if !ok {
		return true // a variable never mentioned is trivially dead
	}
	mm := r.stepper()
	cur := r.XDead[n.ID].Copy()
	for si := len(n.Stmts) - 1; si > idx; si-- {
		mm.step(n.Stmts[si], cur)
	}
	return cur.Get(vi)
}
