// Package core implements the paper's contribution: the assignment
// sinking procedure `ask` (Section 5.3), the dead and faint code
// elimination procedures `dce`/`fce` (Section 5.2), and the exhaustive
// fixpoint drivers `pde`/`pfe` (Section 5.1) that alternate them until
// the program stabilizes, capturing all second-order effects of
// Section 4. By Theorem 5.2 the stable program is optimal in the
// universe of programs reachable by admissible assignment sinkings and
// dead (faint) code eliminations.
package core

import (
	"sort"

	"pdce/internal/analysis"
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// SinkStats describes one application of the assignment sinking
// transformation.
type SinkStats struct {
	// RemovedCandidates is the number of sinking-candidate
	// occurrences taken out of their blocks (excluding candidates
	// kept in place by the X-INSERT fusion).
	RemovedCandidates int
	// InsertedEntry and InsertedExit count materialized instances.
	InsertedEntry, InsertedExit int
}

// Changed reports whether the transformation altered the program.
func (s SinkStats) Changed() bool {
	return s.RemovedCandidates > 0 || s.InsertedEntry > 0 || s.InsertedExit > 0
}

// Sink performs one exhaustive assignment-sinking step (`ask`) on g in
// place, for every assignment pattern simultaneously: it solves the
// delayability system of Table 2 and then
//
//   - removes every sinking candidate,
//   - inserts an instance of α at the entry of n where N-INSERT_n(α),
//   - inserts an instance of α at the exit of n where X-INSERT_n(α).
//
// When X-INSERT_n(α) holds and n itself contains the candidate of α,
// removal and exit-insertion cancel; the candidate is kept in place.
// This realizes the paper's stability condition (Section 5.4:
// X-INSERT = LOCDELAYED means invariance) without intra-block churn,
// and keeps program texts stable for golden tests.
//
// g must have its critical edges split (cfg.SplitCriticalEdges):
// footnote 6's guarantee that branching nodes receive no exit
// insertions — which the placement below relies on for blocks ending
// in a Branch — holds only then.
func Sink(g *cfg.Graph) SinkStats {
	return sinkObserved(g, nil, nil, nil)
}

// sinkObserved is Sink confined to a hot region, with telemetry: hot,
// when non-nil, freezes the locals of the blocks it rejects; tr
// receives the provenance events of the rewrite, m the delayability
// solve's cost counters. All three may be nil.
func sinkObserved(g *cfg.Graph, hot HotPredicate, tr *obs.Trace, m *obs.SolverMetrics) SinkStats {
	fp := analysis.NewFootprints(g)
	delay := analysis.NewDelaySolver(g, fp)
	defer delay.Release()
	delay.SetRegion(hot)
	delay.SetMetrics(m)
	return applySink(g, fp, delay.Solve(nil), nil, tr)
}

// blockEdit is the rewrite notification shared by the transformation
// passes: old is the block's statement slice from before the rewrite,
// and ops encodes the new statement list's provenance — entry i of the
// new list is old[ops[i]] when ops[i] >= 0, or a freshly materialized
// instance of pattern ^ops[i] when ops[i] < 0. The incremental driver
// uses the encoding to splice solver-side per-block caches instead of
// re-resolving every statement against the pattern table.
type blockEdit func(n *cfg.Node, old []ir.Stmt, ops []int32)

// sinkScratch holds applySink's reusable per-block buffers.
type sinkScratch struct {
	removeIdx     []int   // candidate statement indices to drop
	entryPatterns []int   // pattern indices to insert at block entry
	exitPatterns  []int   // pattern indices to insert at block exit
	ops           []int32 // provenance of the rewritten statement list
	opsTail       []int32 // ops of the tail displaced by exit inserts
}

// applySink rewrites every block according to a solved delayability
// system. changed, when non-nil, is called once per block whose
// statement list was altered.
//
// Multiple instances inserted at the same block boundary are ordered
// by the pattern's first occurrence in the pre-sink program, not by
// pattern-table index: the insertion set is determined by the solved
// predicates, but table indices depend on the enumeration order of
// whichever program version built the table. First-occurrence order
// coincides with table order when the table was collected from the
// current program (the reference driver), and is equally computable
// from a superset table carried across the whole run (the incremental
// driver) — so both drivers emit identical text.
func applySink(g *cfg.Graph, fp *analysis.Footprints, delay *analysis.DelayResult, changed blockEdit, tr *obs.Trace) SinkStats {
	pt := fp.Patterns
	locals := delay.Locals
	var st SinkStats
	rank := occurrenceRanks(g, fp)
	var sc sinkScratch
	nIns, xIns := bitvec.New(pt.Len()), bitvec.New(pt.Len())
	for _, n := range g.Nodes() {
		// A block that delays nothing has no candidates and no
		// insertions: it is untouched and emits no trace events.
		if len(locals.Cands[n.ID]) == 0 && delay.NDelayed[n.ID].IsZero() && delay.XDelayed[n.ID].IsZero() {
			continue
		}
		delay.Inserts(n, nIns, xIns)
		ld := locals.LocDelayed[n.ID]

		// Section 5.4's stability condition: with N-INSERT = ∅ and
		// X-INSERT = LOCDELAYED every candidate fuses (removal and
		// exit-insertion cancel) and nothing is inserted, so the
		// block stays as it is. Fuse events go in ascending pattern
		// order (not Cands order) to keep trace order identical
		// across drivers. Only the other blocks build the lists below.
		if nIns.IsZero() && xIns.Equal(ld) {
			if tr != nil {
				ld.ForEach(func(pi int) {
					p := pt.Pattern(pi)
					tr.Record(obs.KindFuse, n.Label, string(p.LHS), p.String())
				})
			}
			continue
		}

		sc.removeIdx = sc.removeIdx[:0]
		sc.entryPatterns = sc.entryPatterns[:0]
		sc.exitPatterns = sc.exitPatterns[:0]

		// A candidate whose pattern has X-INSERT here is fused as
		// above; the others are removed. Each statement is the
		// candidate of at most its own pattern, so the remove and
		// keep sets cannot collide.
		ld.ForEach(func(pi int) {
			if !xIns.Get(pi) {
				sc.removeIdx = append(sc.removeIdx, locals.Candidate(n.ID, pi))
			} else if tr != nil {
				p := pt.Pattern(pi)
				tr.Record(obs.KindFuse, n.Label, string(p.LHS), p.String())
			}
		})
		nIns.ForEach(func(pi int) {
			sc.entryPatterns = append(sc.entryPatterns, pi)
		})
		// Exit insertions for patterns without a local candidate.
		xIns.ForEach(func(pi int) {
			if !ld.Get(pi) {
				sc.exitPatterns = append(sc.exitPatterns, pi)
			}
		})
		sortByRank(sc.entryPatterns, rank)
		sortByRank(sc.exitPatterns, rank)

		newStmts := make([]ir.Stmt, 0, len(n.Stmts)+len(sc.entryPatterns)+len(sc.exitPatterns))
		sc.ops = sc.ops[:0]
		for _, pi := range sc.entryPatterns {
			newStmts = append(newStmts, pt.MakeAssign(pi))
			sc.ops = append(sc.ops, ^int32(pi))
			st.InsertedEntry++
			if tr != nil {
				p := pt.Pattern(pi)
				tr.Record(obs.KindInsertEntry, n.Label, string(p.LHS), p.String())
			}
		}
		for si, s := range n.Stmts {
			if containsInt(sc.removeIdx, si) {
				st.RemovedCandidates++
				if tr != nil {
					if p, ok := ir.PatternOf(s); ok {
						tr.Record(obs.KindSinkRemove, n.Label, string(p.LHS), p.String())
					}
				}
				continue
			}
			newStmts = append(newStmts, s)
			sc.ops = append(sc.ops, int32(si))
		}
		if len(sc.exitPatterns) > 0 {
			// Exit insertions. With critical edges split these
			// never target branching nodes (footnote 6), but Sink
			// is also usable standalone on unsplit graphs: a
			// Branch terminator must stay last, and placing the
			// instance before it is exact — X-DELAYED only holds
			// past a branch that does not block the pattern.
			insertAt := len(newStmts)
			if k := len(newStmts); k > 0 {
				if _, isBranch := newStmts[k-1].(ir.Branch); isBranch {
					insertAt = k - 1
				}
			}
			tail := append([]ir.Stmt(nil), newStmts[insertAt:]...)
			newStmts = newStmts[:insertAt]
			sc.opsTail = append(sc.opsTail[:0], sc.ops[insertAt:]...)
			sc.ops = sc.ops[:insertAt]
			for _, pi := range sc.exitPatterns {
				newStmts = append(newStmts, pt.MakeAssign(pi))
				sc.ops = append(sc.ops, ^int32(pi))
				st.InsertedExit++
				if tr != nil {
					p := pt.Pattern(pi)
					tr.Record(obs.KindInsertExit, n.Label, string(p.LHS), p.String())
				}
			}
			newStmts = append(newStmts, tail...)
			sc.ops = append(sc.ops, sc.opsTail...)
		}
		old := n.Stmts
		n.Stmts = newStmts
		if changed != nil {
			changed(n, old, sc.ops)
		}
	}
	return st
}

// occurrenceRanks maps each pattern index to the position of its first
// occurrence in g (node order, then statement order); patterns with no
// occurrence get a rank past every real one. Insertions are sourced
// from sinking candidates, so every inserted pattern has a real rank.
// Lookups go through the statement index — this runs once per sinking
// round over every statement of the program.
func occurrenceRanks(g *cfg.Graph, fp *analysis.Footprints) []int {
	rank := make([]int, fp.Patterns.Len())
	for i := range rank {
		rank[i] = int(^uint(0) >> 1)
	}
	r := 0
	for _, n := range g.Nodes() {
		fp.ForEachPattern(n, func(pi int) {
			if rank[pi] > r {
				rank[pi] = r
				r++
			}
		})
	}
	return rank
}

// sortByRank orders pattern indices by their occurrence rank.
func sortByRank(idx []int, rank []int) {
	if len(idx) < 2 {
		return
	}
	sort.Slice(idx, func(i, j int) bool { return rank[idx[i]] < rank[idx[j]] })
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// SinkStable reports whether an assignment-sinking step would leave g
// invariant — the paper's termination condition for ask.
func SinkStable(g *cfg.Graph) bool {
	pt := g.CollectPatterns()
	return analysis.Delayability(g, pt).Stable(g)
}
