package core

import (
	"math/rand"

	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// The paper (end of Section 3) states that the optimal program is not
// unique, but that a canonical representative exists which is unique
// up to some reordering inside basic blocks; and Theorem 3.7 states
// that ANY sequence of sinking and elimination steps that applies both
// "sufficiently often" reaches an optimum. This file provides the
// machinery to check both claims mechanically:
//
//   - Canonicalize normalizes intra-block statement order by bubbling
//     data-independent adjacent statements into ascending textual
//     order (relevant statements are barriers: their mutual order is
//     observable). Two optimal programs that differ only by the
//     permitted reordering canonicalize identically.
//   - TransformChaotic drives the fixpoint with a seeded random
//     interleaving of elimination and sinking steps instead of the
//     deterministic alternation.

// independentStmts reports whether adjacent statements a; b can be
// swapped without changing semantics: no data dependence in either
// direction, and not both observable (relevant statements must keep
// their order among themselves). Branch statements never move (they
// must remain block terminators).
func independentStmts(a, b ir.Stmt) bool {
	if _, isBranch := a.(ir.Branch); isBranch {
		return false
	}
	if _, isBranch := b.(ir.Branch); isBranch {
		return false
	}
	if ir.IsRelevant(a) && ir.IsRelevant(b) {
		return false
	}
	if da, ok := ir.Def(a); ok {
		if ir.UsesVarStmt(b, da) || ir.Mods(b, da) {
			return false
		}
	}
	if db, ok := ir.Def(b); ok {
		if ir.UsesVarStmt(a, db) || ir.Mods(a, db) {
			return false
		}
	}
	return true
}

// Canonicalize reorders data-independent adjacent statements of every
// block into ascending textual order, in place. The result is a
// canonical representative of the program's intra-block reordering
// class: a fixpoint of adjacent swaps ordered by statement text.
func Canonicalize(g *cfg.Graph) {
	for _, n := range g.Nodes() {
		stmts := n.Stmts
		for changed := true; changed; {
			changed = false
			for i := 0; i+1 < len(stmts); i++ {
				a, b := stmts[i], stmts[i+1]
				if independentStmts(a, b) && b.String() < a.String() {
					stmts[i], stmts[i+1] = b, a
					changed = true
				}
			}
		}
	}
}

// CanonicallyEqual reports whether two programs are identical up to
// the reordering of independent statements within blocks — the paper's
// equivalence of optimal programs.
func CanonicallyEqual(a, b *cfg.Graph) bool {
	ca, cb := a.Clone(), b.Clone()
	Canonicalize(ca)
	Canonicalize(cb)
	return cfg.Equal(ca, cb)
}

// TransformChaotic runs the optimization as a chaotic iteration
// (Theorem 3.7): at each step a seeded coin decides whether to apply
// an elimination or a sinking step; the loop ends once both leave the
// program unchanged back to back. The result must be an optimum — the
// canonical-equality tests compare it against the deterministic
// driver's result.
func TransformChaotic(g *cfg.Graph, mode Mode, seed int64) (*cfg.Graph, Stats, error) {
	if errs := cfg.Validate(g); len(errs) > 0 {
		return nil, Stats{}, errInvalid(errs[0])
	}
	out := g.Clone()
	var st Stats
	st.OriginalStmts = out.NumStmts()
	st.PeakStmts = st.OriginalStmts
	st.CriticalEdges = len(cfg.SplitCriticalEdges(out))

	rng := rand.New(rand.NewSource(seed))
	limit := roundCap(out)
	elimStable, sinkStable := false, false
	for steps := 0; !(elimStable && sinkStable); steps++ {
		if steps > limit {
			return nil, st, errNoFixpoint(mode, limit)
		}
		st.Rounds++
		if rng.Intn(2) == 0 {
			var e ElimStats
			if mode == ModeFaint {
				e = EliminateFaint(out)
			} else {
				e = EliminateDead(out)
			}
			st.Eliminated += e.Removed
			elimStable = !e.Changed()
			if e.Changed() {
				sinkStable = false
			}
		} else {
			s := Sink(out)
			st.Inserted += s.InsertedEntry + s.InsertedExit
			st.SinkRemoved += s.RemovedCandidates
			sinkStable = !s.Changed()
			if s.Changed() {
				elimStable = false
			}
		}
		if n := out.NumStmts(); n > st.PeakStmts {
			st.PeakStmts = n
		}
	}

	cfg.RemoveEmptySynthetic(out)
	st.FinalStmts = out.NumStmts()
	if errs := cfg.Validate(out); len(errs) > 0 {
		return nil, st, errInvalid(errs[0])
	}
	return out, st, nil
}
