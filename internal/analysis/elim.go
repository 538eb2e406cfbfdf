package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// ElimResult is the greatest solution of one of the two elimination
// analyses of Table 1. Both are backward all-paths systems over the
// variable universe; the dead-variable analysis is a bit-vector
// problem:
//
//	N-DEAD_ι = ¬USED_ι · (X-DEAD_ι + MOD_ι)
//	X-DEAD_ι = ∏_{ι' ∈ succ(ι)} N-DEAD_ι'
//
// A variable is dead at a point if on every path to the end node every
// right-hand-side occurrence is preceded by a modification. Relevant
// statements (out, branch) count as uses. The faint-variable analysis
// (equations at FaintResult) differs only in its per-statement step:
// an operand of an assignment whose own target is faint is not a use.
// That step reads X-FAINT(lhs), so it is not gen/kill (Table 1,
// footnote b), but it is monotone and composes into a block transfer
// like any other. At the end node everything is dead (faint): the
// empty product.
type ElimResult struct {
	Vars *ir.VarTable

	// N[id] is N-DEAD (N-FAINT) at block entry, X[id] X-DEAD
	// (X-FAINT) at block exit, indexed by cfg.NodeID, one bit per
	// variable.
	N, X []*bitvec.Vector

	Stats dataflow.SolverStats

	// prob resolves statements to variable indices and supplies the
	// analysis' one-statement step.
	prob *elimProblem

	// scratch backs AssignIndices' backward sweep, allocated on first
	// use and reused across calls.
	scratch *bitvec.Vector

	// scan, after an incremental solve, holds its touched blocks:
	// every other block kept its statements and its solution values
	// since the previous solve, so the previous elimination pass
	// already emptied its elimination set.
	scan scanSet
}

// NeedsScan reports whether the elimination step must examine block
// id, or may skip it because neither its statements nor its solution
// values moved since the previous elimination pass.
func (r *ElimResult) NeedsScan(id cfg.NodeID) bool { return r.scan.has(id) }

// elimProblem is the block-level system of either elimination
// analysis. Its transfer walks the block's cached footprints backward,
// one step per statement.
type elimProblem struct {
	bits  int
	fp    *Footprints
	faint bool
}

func (p *elimProblem) Bits() int                     { return p.bits }
func (p *elimProblem) Direction() dataflow.Direction { return dataflow.Backward }
func (p *elimProblem) Meet() dataflow.Meet           { return dataflow.Intersect }
func (p *elimProblem) Boundary() *bitvec.Vector      { return bitvec.NewAllOnes(p.bits) }
func (p *elimProblem) Top() *bitvec.Vector           { return bitvec.NewAllOnes(p.bits) }

func (p *elimProblem) Transfer(n *cfg.Node, out, in *bitvec.Vector) {
	in.CopyFrom(out)
	c := p.fp.block(n)
	for si := len(c.info) - 1; si >= 0; si-- {
		p.step(c, si, in)
	}
}

// step updates v from the X value to the N value of statement si of
// block footprint c, in place. The definition makes its target dead
// or faint (+ MOD), then the uses clear theirs (¬USED; within one
// statement the use wins, as in x := x+1). Faint reads X-FAINT(lhs)
// before MOD: the operands of an assignment whose target was faint are
// not cleared. Out and branch define nothing, so all their uses clear
// (¬RELV-USED).
func (p *elimProblem) step(c *blockFootprint, si int, v *bitvec.Vector) {
	info := &c.info[si]
	if d := int(info.def); d >= 0 {
		faintTarget := p.faint && v.Get(d)
		v.Set(d)
		if faintTarget {
			return
		}
	}
	for _, u := range c.uses[info.us:info.ue] {
		v.Clear(int(u))
	}
}

// deadProblem adds the dead-variable analysis' gen/kill form to the
// shared system.
type deadProblem struct {
	*elimProblem

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

	// old is update's scratch: a block's gen row before the rewrite.
	old *bitvec.Vector
}

func newDeadProblem(g *cfg.Graph, base *elimProblem) *deadProblem {
	k := g.NumNodes()
	rows := bitvec.Rows(2*k+1, base.bits)
	p := &deadProblem{elimProblem: base, gen: rows[:k:k], kill: rows[k : 2*k : 2*k], old: rows[2*k]}
	for _, n := range g.Nodes() {
		p.updateBlock(n)
	}
	return p
}

// update is the dead-variable analysis' dataflow.Update: it recomputes
// n's gen/kill masks and writes into rise the variables n newly makes
// dead or no longer makes live, (gen′ ∖ gen) ∪ (kill ∖ kill′).
func (p *deadProblem) update(n *cfg.Node, rise *bitvec.Vector) {
	gen, kill := p.gen[n.ID], p.kill[n.ID]
	p.old.CopyFrom(gen)
	rise.CopyFrom(kill)
	p.updateBlock(n)
	rise.AndNot(kill)
	rise.OrAndNot(gen, p.old)
}

// updateBlock recomputes n's gen/kill masks from its current
// statements: a forward walk in which the first touch of each variable
// wins, uses before definition within a statement.
func (p *deadProblem) updateBlock(n *cfg.Node) {
	gen, kill := p.gen[n.ID], p.kill[n.ID]
	gen.ClearAll()
	kill.ClearAll()
	c := p.fp.block(n)
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

func (p *deadProblem) GenKill(n *cfg.Node) (gen, kill *bitvec.Vector) {
	return p.gen[n.ID], p.kill[n.ID]
}

// DeadVars solves the dead-variable analysis on g over its full
// variable universe.
func DeadVars(g *cfg.Graph) *ElimResult {
	return NewElimSolver(g, NewFootprints(g), false).Solve(nil)
}

// ElimSolver solves an elimination analysis — dead variables, or
// faint ones when created with faint set — repeatedly on one graph
// whose block contents mutate between solves: the fixpoint driver's
// round structure. The variable universe is the statement index's,
// fixed at creation; it must cover every variable of every version of
// the program the solver sees (a superset is fine: a variable that no
// longer occurs is simply dead and faint everywhere and influences no
// other bit).
type ElimSolver struct {
	g      *cfg.Graph
	solver *dataflow.Solver
	res    ElimResult

	// update recomputes a dirty block's dead-variable gen/kill masks
	// and its rise mask. It is nil for the faint analysis, whose
	// transfer re-walks the block's statements and whose re-solve
	// raises every bit.
	update dataflow.Update
}

// NewElimSolver creates a solver for g over the variable universe of
// fp, resolving statements through fp. The dead-variable analysis runs
// on the engine's gen/kill path; the faint one on its general
// transfer.
func NewElimSolver(g *cfg.Graph, fp *Footprints, faint bool) *ElimSolver {
	vars := fp.Vars
	prob := &elimProblem{bits: vars.Len(), fp: fp, faint: faint}
	s := &ElimSolver{g: g}
	if faint {
		s.solver = dataflow.NewSolver(g, prob)
	} else {
		dead := newDeadProblem(g, prob)
		s.solver = dataflow.NewSolver(g, dead)
		s.update = dead.update
	}
	sol := s.solver.Result()
	s.res = ElimResult{Vars: vars, N: sol.In, X: sol.Out, prob: prob}
	return s
}

// SetCancel installs a cancellation check on the underlying worklist
// solver (see dataflow.Solver.SetCancel). A cancelled Solve returns a
// partial result flagged Stats.Cancelled that must not justify any
// elimination.
func (s *ElimSolver) SetCancel(cancel func() bool) { s.solver.SetCancel(cancel) }

// SetMetrics installs a telemetry sink recording every solve this
// solver performs. A nil sink (the default) collects nothing.
func (s *ElimSolver) SetMetrics(m *obs.SolverMetrics) { s.solver.SetMetrics(m) }

// Solve re-solves after the given blocks changed (see
// dataflow.Solver.Resolve). For dead variables each dirty block's
// gen/kill masks are recomputed, and the re-solve raises the previous
// solution only by the variables a block newly makes dead or no longer
// makes live, carried backward past every block that does not read
// them first. Faint variables
// have no gen/kill form: the dirty blocks and their transitive
// predecessors restart from top. The elimination walk then scans only
// the blocks the solve touched (ElimResult.NeedsScan). A nil dirty set
// on a solved instance returns the cached solution; the first call
// always solves in full. The returned result aliases the solver's
// storage and is invalidated by the next Solve.
func (s *ElimSolver) Solve(dirty []cfg.NodeID) *ElimResult {
	sol := s.solver.Resolve(dirty, s.update)
	s.res.Stats = sol.Stats
	s.res.scan.set(s.g, sol.Touched, false)
	return &s.res
}

// InstrX returns X-DEAD (X-FAINT) immediately after every statement of
// block n (index i corresponds to n.Stmts[i]).
func (r *ElimResult) InstrX(n *cfg.Node) []*bitvec.Vector {
	c := r.prob.fp.block(n)
	out := make([]*bitvec.Vector, len(c.info))
	cur := r.X[n.ID].Copy()
	for si := len(c.info) - 1; si >= 0; si-- {
		out[si] = cur.Copy()
		r.prob.step(c, si, cur)
	}
	return out
}

// XAfter reports whether variable v is dead (faint) immediately after
// statement idx of block n.
func (r *ElimResult) XAfter(n *cfg.Node, idx int, v ir.Var) bool {
	vi, ok := r.Vars.Index(v)
	return !ok || r.InstrX(n)[idx].Get(vi) // a variable never mentioned is trivially dead
}

// AssignIndices appends to dst the statement indices of every
// assignment of block n whose left-hand side is dead (faint)
// immediately after it — the elimination set of Section 5.2 — in
// decreasing index order. Unlike InstrX it allocates no per-statement
// vectors: one persistent scratch vector carries the backward sweep.
func (r *ElimResult) AssignIndices(n *cfg.Node, dst []int) []int {
	if len(n.Stmts) == 0 {
		return dst
	}
	if r.scratch == nil {
		r.scratch = bitvec.New(r.prob.bits)
	}
	cur := r.scratch
	cur.CopyFrom(r.X[n.ID])
	c := r.prob.fp.block(n)
	for si := len(c.info) - 1; si >= 0; si-- {
		// cur is X immediately after statement si.
		if d := c.info[si].def; d >= 0 && cur.Get(int(d)) {
			dst = append(dst, si)
		}
		r.prob.step(c, si, cur)
	}
	return dst
}
