package core

import (
	"pdce/internal/analysis"
	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// ElimStats describes one application of an elimination step.
type ElimStats struct {
	// Removed is the number of assignments eliminated.
	Removed int
	// SolverWork is analysis effort: block visits of the engine's
	// dead or faint solve, or slot updates of the reference driver's
	// slotwise faint solve.
	SolverWork int
}

// Changed reports whether the elimination altered the program.
func (s ElimStats) Changed() bool { return s.Removed > 0 }

// EliminateDead performs one dead code elimination step (`dce`) on g
// in place: it solves the dead-variable system of Table 1 and then
// processes every basic block, eliminating each assignment whose
// left-hand-side variable is dead immediately after it (Section 5.2,
// "The Elimination Step").
//
// All removals are justified by the single greatest solution computed
// up front; cascading effects (elimination-elimination, Section 4.4)
// are second-order and handled by the driver's re-iteration.
func EliminateDead(g *cfg.Graph) ElimStats {
	return eliminateOnce(g, false)
}

// EliminateFaint performs one faint code elimination step (`fce`) on g
// in place, eliminating each assignment whose left-hand-side variable
// is faint immediately after it. Faintness subsumes deadness, so every
// dce removal is also an fce removal; fce additionally removes
// mutually-sustaining useless assignments (Figure 9, Figure 12).
func EliminateFaint(g *cfg.Graph) ElimStats {
	return eliminateOnce(g, true)
}

func eliminateOnce(g *cfg.Graph, faint bool) ElimStats {
	res := analysis.NewElimSolver(g, analysis.NewFootprints(g.CollectVars(), nil), faint).Solve(nil)
	return eliminateSolved(g, res, res.Stats.NodeVisits, nil, nil, nil)
}

// elimSolution is a solved elimination analysis: the engine's
// analysis.ElimResult in either mode, or the reference driver's
// slotwise analysis.FaintResult.
type elimSolution interface {
	// NeedsScan reports whether block id may hold eliminable
	// assignments the previous elimination pass did not see.
	NeedsScan(id cfg.NodeID) bool
	// AssignIndices appends the indices of block n's eliminable
	// assignments to dst in decreasing statement order.
	AssignIndices(n *cfg.Node, dst []int) []int
}

// eliminateSolved applies the elimination step justified by an
// already-solved analysis; work is the solve's effort for ElimStats.
// The solution must describe g's current statement layout. hot, when
// non-nil, confines the removals to the blocks it accepts; the
// analysis itself stays global, because deadness and faintness must
// see the uses in cold blocks. changed, when non-nil, is called once
// for every block whose statement list was altered — the dirty-set
// feed of the incremental driver. tr, when non-nil, receives one
// provenance event per removed assignment.
func eliminateSolved(g *cfg.Graph, sol elimSolution, work int, hot HotPredicate, changed blockEdit, tr *obs.Trace) ElimStats {
	st := ElimStats{SolverWork: work}
	var idx []int
	var ops []int32
	for _, n := range g.Nodes() {
		// An incremental solve restricts the walk: a block whose
		// statements and solution values both held still since the
		// previous elimination pass was emptied of eliminable
		// assignments by that pass and needs no rescan.
		if len(n.Stmts) == 0 || !sol.NeedsScan(n.ID) || (hot != nil && !hot(n)) {
			continue
		}
		idx = sol.AssignIndices(n, idx[:0])
		if len(idx) == 0 {
			continue
		}
		// idx is in decreasing statement order; walk it from the
		// back to drop statements in one forward compaction. The
		// compaction aliases the old backing array, so the old slice
		// header is captured first — its base pointer and length are
		// what the rewrite notification's consumers validate against.
		old := n.Stmts
		j := len(idx) - 1
		kept := n.Stmts[:0]
		ops = ops[:0]
		for si, s := range n.Stmts {
			if j >= 0 && idx[j] == si {
				j--
				st.Removed++
				if tr != nil {
					if p, ok := ir.PatternOf(s); ok {
						tr.Record(obs.KindEliminate, n.Label, string(p.LHS), p.String())
					}
				}
				continue
			}
			kept = append(kept, s)
			ops = append(ops, int32(si))
		}
		n.Stmts = kept
		if changed != nil {
			changed(n, old, ops)
		}
	}
	return st
}
