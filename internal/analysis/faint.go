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
// the slot (ι, lhs_ι) of the same instruction. This solver is the
// paper's: it works slotwise at instruction granularity, following the
// worklist discipline of Sections 5.2 and 6.1.2. The optimizer solves
// the same equations blockwise on the one dataflow engine
// (NewElimSolver with faint set); the slotwise solver is the reference
// the engine's solution is tested against, and the from-scratch
// reference driver's faint analysis.
type FaintResult struct {
	Vars *ir.VarTable
	Flat *dataflow.FlatProgram

	// NFaint[i], XFaint[i] are the entry/exit faint vectors of flat
	// instruction i.
	NFaint, XFaint []*bitvec.Vector

	// SlotUpdates counts worklist slot processings — the quantity
	// Section 6.1.2 bounds by O(i·v).
	SlotUpdates int
}

// FaintVars solves the faint-variable analysis on g with the slotwise
// worklist algorithm.
func FaintVars(g *cfg.Graph) *FaintResult {
	return FaintVarsObserve(g, g.CollectVars(), nil)
}

// FaintVarsObserve is FaintVars over a caller-chosen variable universe
// (which must cover every variable in g). metrics, when non-nil,
// receives the solve's slot-update and worklist-push counts (including
// the initial seeding).
func FaintVarsObserve(g *cfg.Graph, vars *ir.VarTable, metrics *obs.SolverMetrics) *FaintResult {
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
	if metrics != nil {
		// A full solve whose unit of work is the slot update.
		metrics.Solves.Add(1)
		metrics.FullSolves.Add(1)
		metrics.SlotUpdates.Add(int64(r.SlotUpdates))
		metrics.WorklistPushes.Add(int64(pushes))
	}
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

// NeedsScan reports true for every block: a from-scratch solve makes
// no claim about which blocks held still.
func (r *FaintResult) NeedsScan(cfg.NodeID) bool { return true }

// AssignIndices appends to dst the statement indices of every
// assignment of block n whose left-hand side is faint immediately
// after it — the elimination set of faint code elimination — in
// decreasing index order.
func (r *FaintResult) AssignIndices(n *cfg.Node, dst []int) []int {
	for si := len(n.Stmts) - 1; si >= 0; si-- {
		if a, ok := n.Stmts[si].(ir.Assign); ok && r.FaintAfter(n, si, a.LHS) {
			dst = append(dst, si)
		}
	}
	return dst
}
