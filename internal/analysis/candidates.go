// Package analysis implements the data flow analyses of the paper:
// the dead- and faint-variable analyses of Table 1, the delayability
// analysis and insertion points of Table 2, and the supporting local
// predicates (sinking candidates, blockades; Section 5.3, Figure 13).
// It also provides reaching definitions / def-use chains for the
// def-use-graph dead code elimination baseline.
package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// Locals holds, for one flow graph and one pattern universe, the local
// predicates of Table 2:
//
//	LOCDELAYED_n(α)  — block n contains a sinking candidate of α,
//	LOCBLOCKED_n(α)  — some instruction of n blocks the sinking of α.
//
// A sinking candidate is an occurrence of α ≡ x := t that is not
// followed, within its block, by an instruction blocking α (an
// instruction that modifies an operand of t, uses x, or modifies x).
// Because every occurrence of α blocks α itself (it modifies x), at
// most the last occurrence in a block is a candidate.
type Locals struct {
	Patterns *ir.PatternTable

	// LocDelayed and LocBlocked are indexed by cfg.NodeID; one bit
	// per pattern.
	LocDelayed []*bitvec.Vector
	LocBlocked []*bitvec.Vector

	// Cands[nodeID] lists the block's sinking candidates as
	// (pattern index, statement index) pairs, at most one entry per
	// pattern, in decreasing statement order (the backward sweep's
	// discovery order). A compact list rather than a dense
	// per-pattern row: blocks hold a handful of candidates while the
	// pattern universe grows with the program, and the dense
	// nodes×patterns matrix dominated the allocation profile.
	Cands [][]CandEntry
}

// CandEntry records one sinking candidate of a block.
type CandEntry struct {
	Pat  int32 // pattern index
	Stmt int32 // statement index within the block
}

// Candidate returns the statement index of the sinking candidate of
// pattern pi in block id, or -1 if the block has none.
func (l *Locals) Candidate(id cfg.NodeID, pi int) int {
	for _, c := range l.Cands[id] {
		if int(c.Pat) == pi {
			return int(c.Stmt)
		}
	}
	return -1
}

// Freeze applies the hot-region restriction to block id: it gets no
// sinking candidates and blocks every pattern, so nothing inside it
// moves and code arriving at it stops at its entry.
func (l *Locals) Freeze(id cfg.NodeID) {
	l.LocDelayed[id].ClearAll()
	l.LocBlocked[id].SetAll()
	l.Cands[id] = l.Cands[id][:0]
}

// ComputeLocals computes the local predicates of every block of g over
// the pattern universe pt. It builds a PatternIndex internally; callers
// that recompute locals repeatedly over the same universe should build
// the index once and use its Locals/UpdateBlock methods.
func ComputeLocals(g *cfg.Graph, pt *ir.PatternTable) *Locals {
	return NewPatternIndex(footprintsOf(g, pt)).Locals(g)
}

// SinkingCandidates returns, for presentation and tests, the candidate
// occurrences of block n as (statement index, pattern) pairs in
// statement order.
func (l *Locals) SinkingCandidates(n *cfg.Node) []Candidate {
	var out []Candidate
	for _, c := range l.Cands[n.ID] {
		out = append(out, Candidate{StmtIndex: int(c.Stmt), Pattern: l.Patterns.Pattern(int(c.Pat)), PatternIdx: int(c.Pat)})
	}
	// Order by statement position for stable output.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].StmtIndex < out[j-1].StmtIndex; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Candidate is a sinking candidate occurrence.
type Candidate struct {
	StmtIndex  int
	Pattern    ir.Pattern
	PatternIdx int
}

// FirstBlockerIdx returns the statement index of the first instruction
// of n that blocks pattern pi, or len(n.Stmts) if none does. The
// sinking transformation inserts arriving instances of a pattern at
// block entry when a blocker exists (N-INSERT); this helper supports
// diagnostics explaining *why*.
func (l *Locals) FirstBlockerIdx(n *cfg.Node, pi int) int {
	for si, s := range n.Stmts {
		if l.Patterns.BlocksIdx(s, pi) {
			return si
		}
	}
	return len(n.Stmts)
}
