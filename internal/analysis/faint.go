package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// FaintResult is the greatest solution of the faint-variable analysis
// of Table 1:
//
//	N-FAINT_ι(x) = ¬RELV-USED_ι(x) · (X-FAINT_ι(x) + MOD_ι(x))
//	                              · (X-FAINT_ι(lhs_ι) + ¬ASS-USED_ι(x))
//	X-FAINT_ι(x) = ∏_{ι' ∈ succ(ι)} N-FAINT_ι'(x)
//
// A variable is faint if on every path to the end node every
// right-hand-side occurrence is preceded by a modification or occurs
// in an assignment whose own left-hand side is faint. Faintness
// subsumes deadness and additionally catches self-sustaining useless
// computations such as the loop x := x+1 of Figure 9.
//
// The problem is not a bit-vector problem — the slot (ι, x) depends on
// the slot (ι, lhs_ι) of the same instruction — so the canonical
// solver works slotwise at instruction granularity, following the
// worklist discipline the paper describes in Sections 5.2 and 6.1.2.
type FaintResult struct {
	Vars *ir.VarTable
	Flat *dataflow.FlatProgram

	// NFaint[i], XFaint[i] are the entry/exit faint vectors of flat
	// instruction i.
	NFaint, XFaint []*bitvec.Vector

	// SlotUpdates counts worklist slot processings — the quantity
	// Section 6.1.2 bounds by O(i·v).
	SlotUpdates int

	// Cancelled reports that the solve was interrupted before
	// reaching the fixpoint. A cancelled solution is partial — still
	// above the greatest fixpoint — and must not justify any
	// elimination.
	Cancelled bool
}

// FaintVars solves the faint-variable analysis on g with the slotwise
// worklist algorithm.
func FaintVars(g *cfg.Graph) *FaintResult {
	return FaintVarsObserve(g, g.CollectVars(), nil, nil)
}

// FaintVarsObserve is FaintVars over a caller-chosen variable universe
// (which must cover every variable in g). cancel, when non-nil, is
// consulted periodically while the slot worklist drains; when it
// returns true the solve stops early and the result comes back flagged
// Cancelled. metrics, when non-nil, receives the solve's slot-update
// and worklist-push counts (including the initial seeding) when it
// finishes or is cancelled.
func FaintVarsObserve(g *cfg.Graph, vars *ir.VarTable, cancel func() bool, metrics *obs.SolverMetrics) *FaintResult {
	fp := dataflow.Flatten(g)
	nv := vars.Len()
	ni := fp.Len()
	r := &FaintResult{
		Vars:   vars,
		Flat:   fp,
		NFaint: make([]*bitvec.Vector, ni),
		XFaint: make([]*bitvec.Vector, ni),
	}
	for i := 0; i < ni; i++ {
		r.NFaint[i] = bitvec.NewAllOnes(nv)
		r.XFaint[i] = bitvec.NewAllOnes(nv)
	}

	// Per-instruction facts, precomputed once.
	type instrFacts struct {
		lhs      int   // variable index of LHS, or -1
		rhs      []int // variable indices used on an assignment RHS
		relvUses []int // variable indices used by a relevant statement
	}
	facts := make([]instrFacts, ni)
	for i, instr := range fp.Instrs {
		f := instrFacts{lhs: -1}
		switch s := instr.Stmt.(type) {
		case ir.Assign:
			f.lhs = vars.MustIndex(s.LHS)
			seen := map[int]bool{}
			ir.ExprVars(s.RHS, func(v ir.Var) {
				vi := vars.MustIndex(v)
				if !seen[vi] {
					seen[vi] = true
					f.rhs = append(f.rhs, vi)
				}
			})
		case ir.Out, ir.Branch:
			seen := map[int]bool{}
			ir.Uses(instr.Stmt, func(v ir.Var) {
				vi := vars.MustIndex(v)
				if !seen[vi] {
					seen[vi] = true
					f.relvUses = append(f.relvUses, vi)
				}
			})
		}
		facts[i] = f
	}

	isRelvUsed := func(i, x int) bool {
		for _, u := range facts[i].relvUses {
			if u == x {
				return true
			}
		}
		return false
	}
	isAssUsed := func(i, x int) bool {
		for _, u := range facts[i].rhs {
			if u == x {
				return true
			}
		}
		return false
	}

	// nEquation evaluates the N-FAINT equation for slot (i, x) from
	// the current X-FAINT values.
	nEquation := func(i, x int) bool {
		if isRelvUsed(i, x) {
			return false
		}
		f := facts[i]
		if !(r.XFaint[i].Get(x) || f.lhs == x) {
			return false
		}
		if isAssUsed(i, x) && !r.XFaint[i].Get(f.lhs) {
			return false
		}
		return true
	}

	// Slot worklist. Values only fall (true→false), so each slot
	// enters the queue O(1) times per dependency fall.
	type slot struct{ i, x int }
	var queue []slot
	pushes := 0
	queued := make([]bool, ni*nv)
	push := func(i, x int) {
		k := i*nv + x
		if !queued[k] {
			queued[k] = true
			queue = append(queue, slot{i, x})
			pushes++
		}
	}
	// Seed every slot once.
	for i := 0; i < ni; i++ {
		for x := 0; x < nv; x++ {
			push(i, x)
		}
	}

	for len(queue) > 0 {
		if cancel != nil && r.SlotUpdates%256 == 0 && cancel() {
			r.Cancelled = true
			metrics.RecordSlotSolve(r.SlotUpdates, pushes, true)
			return r
		}
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[s.i*nv+s.x] = false
		r.SlotUpdates++

		// X-FAINT_i(x) = ∏ over successors of N-FAINT(x); the
		// empty product (end instruction) stays true.
		newX := true
		for _, j := range fp.Instrs[s.i].Succs {
			if !r.NFaint[j].Get(s.x) {
				newX = false
				break
			}
		}
		xFell := false
		if !newX && r.XFaint[s.i].Get(s.x) {
			r.XFaint[s.i].Clear(s.x)
			xFell = true
		}

		newN := nEquation(s.i, s.x)
		if !newN && r.NFaint[s.i].Get(s.x) {
			r.NFaint[s.i].Clear(s.x)
			// The entry value of i feeds the exit values of
			// its predecessors.
			for _, p := range fp.Instrs[s.i].Preds {
				push(p, s.x)
			}
		}

		// The paper's subtlety: when the slot (ι, lhs_ι) has been
		// processed successfully (fell), the slots (ι, z) of the
		// right-hand-side variables z of ι depend on it and must
		// be revisited.
		if xFell && s.x == facts[s.i].lhs {
			for _, z := range facts[s.i].rhs {
				push(s.i, z)
			}
		}
	}
	metrics.RecordSlotSolve(r.SlotUpdates, pushes, false)
	return r
}

// FaintAfter reports whether variable v is faint immediately after
// statement idx of block n — the elimination criterion for faint code
// elimination.
func (r *FaintResult) FaintAfter(n *cfg.Node, idx int, v ir.Var) bool {
	vi, ok := r.Vars.Index(v)
	if !ok {
		return true
	}
	return r.XFaint[r.Flat.BlockEntry(n)+idx].Get(vi)
}

// EntryFaint returns N-FAINT at the entry of block n.
func (r *FaintResult) EntryFaint(n *cfg.Node) *bitvec.Vector {
	return r.NFaint[r.Flat.BlockEntry(n)]
}

// ExitFaint returns X-FAINT at the exit of block n.
func (r *FaintResult) ExitFaint(n *cfg.Node) *bitvec.Vector {
	return r.XFaint[r.Flat.BlockExit(n)]
}

// --- Blockwise reference solver ------------------------------------

// faintProblem solves the same equations with a block-level worklist
// whose transfer walks the block backwards. Functionally equivalent to
// the slotwise solver (both compute the greatest fixpoint); kept as a
// cross-check oracle and ablation subject.
type faintProblem struct {
	vars *ir.VarTable
	bits int
}

func (p *faintProblem) Bits() int                     { return p.bits }
func (p *faintProblem) Direction() dataflow.Direction { return dataflow.Backward }
func (p *faintProblem) Meet() dataflow.Meet           { return dataflow.Intersect }
func (p *faintProblem) Boundary() *bitvec.Vector      { return bitvec.NewAllOnes(p.bits) }
func (p *faintProblem) Top() *bitvec.Vector           { return bitvec.NewAllOnes(p.bits) }

func (p *faintProblem) Transfer(n *cfg.Node, out, in *bitvec.Vector) {
	in.CopyFrom(out)
	for si := len(n.Stmts) - 1; si >= 0; si-- {
		faintStep(p.vars, n.Stmts[si], in)
	}
}

// faintStep updates v from X-FAINT to N-FAINT across one instruction,
// in place. Order matters twice: the conjunct involving X-FAINT(lhs)
// must read the pre-update value, and for a self-referential
// assignment (lhs among its own operands, e.g. x := x+1) with a
// non-faint target, the operand-clearing conjunct overrides the MOD
// disjunct — so MOD is applied first and the clears afterwards.
func faintStep(vars *ir.VarTable, s ir.Stmt, v *bitvec.Vector) {
	switch st := s.(type) {
	case ir.Assign:
		lhsIdx := vars.MustIndex(st.LHS)
		lhsFaintAfter := v.Get(lhsIdx)
		v.Set(lhsIdx) // + MOD
		if !lhsFaintAfter {
			// ASS-USED operands of a non-faint target are not
			// faint before the instruction.
			ir.ExprVars(st.RHS, func(u ir.Var) {
				v.Clear(vars.MustIndex(u))
			})
		}
	case ir.Out, ir.Branch:
		ir.Uses(s, func(u ir.Var) { // ¬RELV-USED
			v.Clear(vars.MustIndex(u))
		})
	}
}

// BlockFaintResult is the blockwise reference solution.
type BlockFaintResult struct {
	Vars   *ir.VarTable
	NFaint []*bitvec.Vector // block entry, by NodeID
	XFaint []*bitvec.Vector // block exit, by NodeID
	Stats  dataflow.SolverStats
}

// FaintVarsBlockwise solves the faint analysis with the block-level
// reference solver.
func FaintVarsBlockwise(g *cfg.Graph) *BlockFaintResult {
	vars := g.CollectVars()
	prob := &faintProblem{vars: vars, bits: vars.Len()}
	sol := dataflow.Solve(g, prob)
	return &BlockFaintResult{Vars: vars, NFaint: sol.In, XFaint: sol.Out, Stats: sol.Stats}
}

// InstrXFaint returns X-FAINT immediately after every statement of
// block n under the blockwise solution.
func (r *BlockFaintResult) InstrXFaint(n *cfg.Node) []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(n.Stmts))
	cur := r.XFaint[n.ID].Copy()
	for si := len(n.Stmts) - 1; si >= 0; si-- {
		out[si] = cur.Copy()
		faintStep(r.Vars, n.Stmts[si], cur)
	}
	return out
}
