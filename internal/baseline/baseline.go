// Package baseline implements the comparison points of the paper's
// Related Work and Section 5.2:
//
//   - IteratedDCE / IteratedFCE: the "usual approaches" — pure dead or
//     faint code elimination without any code motion. Everything they
//     remove, pde/pfe removes too; partially dead code stays behind.
//   - DefUseDCE: the classic def-use-graph marking algorithm
//     (references [2, 21, 30]): optimistic marking from relevant
//     statements over def-use chains, which detects exactly the faint
//     assignments.
//   - SingleRound: one sinking step followed by one elimination step —
//     the power of an algorithm without second-order iteration
//     (Figures 3, 10, 11, 12 defeat it).
//   - UnionSink: an intentionally unsafe ablation replacing the
//     product (all-paths) confluence of the delayability system with a
//     sum (some-path), which is the essential difference to eager
//     instruction sinking à la Briggs/Cooper: it pushes code into
//     loops and impairs (or even breaks) executions — the hazard the
//     paper's Related Work calls out. It exists to be *measured
//     failing* in the C6 experiment.
package baseline

import (
	"fmt"

	"pdce/internal/analysis"
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/dataflow"
	"pdce/internal/ir"
)

// Result pairs a transformed program with simple counts.
type Result struct {
	Graph   *cfg.Graph
	Removed int
	Rounds  int
}

// IteratedDCE applies dead code elimination to its fixpoint (no
// sinking). This is classic global dead code elimination: second-order
// elimination-elimination effects are handled by iteration, partially
// dead assignments are not touched.
func IteratedDCE(g *cfg.Graph) Result {
	out := g.Clone()
	res := Result{Graph: out}
	for {
		res.Rounds++
		st := core.EliminateDead(out)
		res.Removed += st.Removed
		if !st.Changed() {
			return res
		}
	}
}

// IteratedFCE applies faint code elimination to its fixpoint (no
// sinking). A single step already removes all faint assignments;
// iterating confirms the fixpoint.
func IteratedFCE(g *cfg.Graph) Result {
	out := g.Clone()
	res := Result{Graph: out}
	for {
		res.Rounds++
		st := core.EliminateFaint(out)
		res.Removed += st.Removed
		if !st.Changed() {
			return res
		}
	}
}

// DefUseDCE eliminates useless assignments with the def-use-graph
// marking algorithm: seed the worklist with the definitions reaching
// relevant statements, propagate need backwards over def-use chains,
// and sweep every unmarked assignment. With these optimistic
// assumptions every faint assignment is detected (Section 5.2).
func DefUseDCE(g *cfg.Graph) Result {
	out := g.Clone()
	rd := analysis.ReachingDefs(out)
	fp := rd.Flat

	marked := make([]bool, len(rd.Defs))
	var queue []int // def bits to process

	markDefsOf := func(i int, vars map[ir.Var]bool) {
		rd.In[i].ForEach(func(bit int) {
			def := fp.Instrs[rd.Defs[bit]].Stmt.(ir.Assign)
			if vars[def.LHS] && !marked[bit] {
				marked[bit] = true
				queue = append(queue, bit)
			}
		})
	}

	// Seed: defs feeding relevant statements.
	for i, instr := range fp.Instrs {
		if ir.IsRelevant(instr.Stmt) {
			markDefsOf(i, ir.UsesSet(instr.Stmt))
		}
	}
	// Propagate: a needed assignment needs the defs of its operands.
	for len(queue) > 0 {
		bit := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		di := rd.Defs[bit]
		markDefsOf(di, ir.UsesSet(fp.Instrs[di].Stmt))
	}

	// Sweep.
	res := Result{Graph: out, Rounds: 1}
	removeAt := make(map[*cfg.Node]map[int]bool)
	for bit, di := range rd.Defs {
		if !marked[bit] {
			instr := fp.Instrs[di]
			if removeAt[instr.Node] == nil {
				removeAt[instr.Node] = make(map[int]bool)
			}
			removeAt[instr.Node][instr.Index] = true
		}
	}
	for _, n := range out.Nodes() {
		dead := removeAt[n]
		if len(dead) == 0 {
			continue
		}
		kept := n.Stmts[:0]
		for si, s := range n.Stmts {
			if dead[si] {
				res.Removed++
				continue
			}
			kept = append(kept, s)
		}
		n.Stmts = kept
	}
	return res
}

// SingleRound performs exactly one assignment sinking step followed by
// one elimination step — the shape of a PDE algorithm without
// second-order iteration. The result is correct but generally
// suboptimal; cmd/benchpaper quantifies the gap.
func SingleRound(g *cfg.Graph, mode core.Mode) (Result, error) {
	if errs := cfg.Validate(g); len(errs) > 0 {
		return Result{}, fmt.Errorf("baseline: invalid input: %s", errs[0])
	}
	out := g.Clone()
	cfg.SplitCriticalEdges(out)
	core.Sink(out)
	var st core.ElimStats
	if mode == core.ModeFaint {
		st = core.EliminateFaint(out)
	} else {
		st = core.EliminateDead(out)
	}
	cfg.RemoveEmptySynthetic(out)
	return Result{Graph: out, Removed: st.Removed, Rounds: 1}, nil
}

// --- union-meet sinking ablation ------------------------------------

// unionDelayProblem is the delayability system of Table 2 with the
// product over predecessors replaced by a sum: a pattern counts as
// delayed to a node as soon as it is delayable along *some* incoming
// path. This discards the paper's justification invariant
// (Definition 3.2, condition 2) and is the analytical core of why
// eager sinking schemes can push computations into loops.
type unionDelayProblem struct {
	locals *analysis.Locals
	bits   int
}

func (p *unionDelayProblem) Bits() int                     { return p.bits }
func (p *unionDelayProblem) Direction() dataflow.Direction { return dataflow.Forward }
func (p *unionDelayProblem) Meet() dataflow.Meet           { return dataflow.Union }
func (p *unionDelayProblem) Boundary() *bitvec.Vector      { return bitvec.New(p.bits) }
func (p *unionDelayProblem) Top() *bitvec.Vector           { return bitvec.New(p.bits) } // least fixpoint

func (p *unionDelayProblem) Transfer(n *cfg.Node, in, out *bitvec.Vector) {
	out.CopyFrom(in)
	out.AndNot(p.locals.LocBlocked[n.ID])
	out.Or(p.locals.LocDelayed[n.ID])
}

// UnionSinkOnce performs one sinking step under the unsafe union-meet
// delayability, followed by one dce step. Deliberately NOT semantics
// preserving in general; used only as a measured ablation.
func UnionSinkOnce(g *cfg.Graph) Result {
	out := g.Clone()
	cfg.SplitCriticalEdges(out)
	locals := analysis.ComputeLocals(out)
	pt := locals.Patterns
	prob := &unionDelayProblem{locals: locals, bits: pt.Len()}
	sol := dataflow.Solve(out, prob)

	// Derive insertion predicates exactly as analysis.Delayability
	// does, but over the union solution.
	nIns := make([]*bitvec.Vector, out.NumNodes())
	xIns := make([]*bitvec.Vector, out.NumNodes())
	for _, n := range out.Nodes() {
		ni := sol.In[n.ID].Copy()
		ni.And(locals.LocBlocked[n.ID])
		nIns[n.ID] = ni
		some := bitvec.New(pt.Len())
		for _, m := range n.Succs() {
			nd := sol.In[m.ID].Copy()
			nd.Not()
			some.Or(nd)
		}
		xi := sol.Out[n.ID].Copy()
		xi.And(some)
		xIns[n.ID] = xi
	}
	applyInsertRemove(out, pt, locals, nIns, xIns)
	st := core.EliminateDead(out)
	cfg.RemoveEmptySynthetic(out)
	return Result{Graph: out, Removed: st.Removed, Rounds: 1}
}

// applyInsertRemove mirrors core's sinking application for the
// ablation: remove candidates, materialize insertions (keeping
// candidates fused with an exit insertion in place).
func applyInsertRemove(g *cfg.Graph, pt *ir.PatternTable, locals *analysis.Locals, nIns, xIns []*bitvec.Vector) {
	for _, n := range g.Nodes() {
		keep := map[int]bool{}
		remove := map[int]bool{}
		var exitPatterns []int
		for pi := 0; pi < pt.Len(); pi++ {
			si := locals.Candidate(n.ID, pi)
			if si < 0 {
				continue
			}
			if xIns[n.ID].Get(pi) {
				keep[si] = true
			} else {
				remove[si] = true
			}
		}
		xIns[n.ID].ForEach(func(pi int) {
			if locals.Candidate(n.ID, pi) < 0 {
				exitPatterns = append(exitPatterns, pi)
			}
		})
		if len(remove) == 0 && len(exitPatterns) == 0 && nIns[n.ID].IsZero() {
			continue
		}
		var stmts []ir.Stmt
		nIns[n.ID].ForEach(func(pi int) { stmts = append(stmts, pt.MakeAssign(pi)) })
		for si, s := range n.Stmts {
			if remove[si] && !keep[si] {
				continue
			}
			stmts = append(stmts, s)
		}
		// Unlike the safe algorithm, the union ablation can demand
		// exit insertions at branching nodes; keep a Branch
		// terminator last so the graph stays structurally valid.
		insertAt := len(stmts)
		if k := len(stmts); k > 0 {
			if _, isBranch := stmts[k-1].(ir.Branch); isBranch {
				insertAt = k - 1
			}
		}
		tail := append([]ir.Stmt(nil), stmts[insertAt:]...)
		stmts = stmts[:insertAt]
		for _, pi := range exitPatterns {
			stmts = append(stmts, pt.MakeAssign(pi))
		}
		stmts = append(stmts, tail...)
		n.Stmts = stmts
	}
}
