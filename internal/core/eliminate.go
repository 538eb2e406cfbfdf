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
	// SolverWork is analysis effort: block visits for the dead
	// analysis, slot updates for the faint analysis.
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
	return eliminateDeadSolved(g, analysis.DeadVars(g), nil, nil, nil)
}

// eliminateDeadSolved applies the elimination step justified by an
// already-solved dead-variable analysis. hot, when non-nil, confines
// the removals to the blocks it accepts; the analysis itself stays
// global, because deadness must see the uses in cold blocks. changed,
// when non-nil, is called once for every block whose statement list
// was altered — the dirty-set feed of the incremental driver. tr, when
// non-nil, receives one provenance event per removed assignment.
func eliminateDeadSolved(g *cfg.Graph, dead *analysis.DeadResult, hot HotPredicate, changed blockEdit, tr *obs.Trace) ElimStats {
	var st ElimStats
	st.SolverWork = dead.Stats.NodeVisits
	var idx []int
	var ops []int32
	for _, n := range g.Nodes() {
		// An incremental solve restricts the walk: a block whose
		// statements and solution values both held still since the
		// previous elimination pass was emptied of dead assignments
		// by that pass and needs no rescan.
		if len(n.Stmts) == 0 || !dead.NeedsScan(n.ID) || (hot != nil && !hot(n)) {
			continue
		}
		idx = dead.DeadAssignIndices(n, idx[:0])
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

// EliminateFaint performs one faint code elimination step (`fce`) on g
// in place, eliminating each assignment whose left-hand-side variable
// is faint immediately after it. Faintness subsumes deadness, so every
// dce removal is also an fce removal; fce additionally removes
// mutually-sustaining useless assignments (Figure 9, Figure 12).
func EliminateFaint(g *cfg.Graph) ElimStats {
	return eliminateFaintSolved(g, analysis.FaintVars(g), nil, nil, nil)
}

// eliminateFaintSolved applies the elimination step justified by an
// already-solved faint-variable analysis, confined to hot blocks like
// eliminateDeadSolved. The solution must describe g's current
// statement layout (the flat program indexes into it).
func eliminateFaintSolved(g *cfg.Graph, faint *analysis.FaintResult, hot HotPredicate, changed blockEdit, tr *obs.Trace) ElimStats {
	var st ElimStats
	st.SolverWork = faint.SlotUpdates
	var ops []int32
	for _, n := range g.Nodes() {
		if len(n.Stmts) == 0 || (hot != nil && !hot(n)) {
			continue
		}
		removed := 0
		old := n.Stmts
		kept := n.Stmts[:0]
		ops = ops[:0]
		for si, s := range n.Stmts {
			if a, ok := s.(ir.Assign); ok && faint.FaintAfter(n, si, a.LHS) {
				removed++
				if tr != nil {
					if p, pok := ir.PatternOf(s); pok {
						tr.Record(obs.KindEliminate, n.Label, string(p.LHS), p.String())
					}
				}
				continue
			}
			kept = append(kept, s)
			ops = append(ops, int32(si))
		}
		n.Stmts = kept
		if removed > 0 {
			st.Removed += removed
			if changed != nil {
				changed(n, old, ops)
			}
		}
	}
	return st
}
