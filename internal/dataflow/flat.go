package dataflow

import (
	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// FlatProgram is an instruction-level view of a flow graph: every
// statement becomes one instruction, and a block without statements
// contributes a single implicit skip so that every block has an entry
// and an exit instruction. The paper's slotwise faint-variable solver
// works at this granularity (Table 1 is stated per instruction; its
// footnote b notes only the dead analysis has a gen/kill block form).
type FlatProgram struct {
	Graph  *cfg.Graph
	Instrs []FlatInstr

	// entry[id] and exit[id] are the first and last instruction
	// indices of each block.
	entry, exit []int
}

// FlatInstr is one instruction with its location and flow successors
// and predecessors (instruction indices).
type FlatInstr struct {
	Node  *cfg.Node
	Index int // statement index within the node; -1 for implicit skip
	Stmt  ir.Stmt

	Succs []int
	Preds []int
}

// Flatten builds the instruction-level view of g.
func Flatten(g *cfg.Graph) *FlatProgram {
	fp := &FlatProgram{
		Graph: g,
		entry: make([]int, g.NumNodes()),
		exit:  make([]int, g.NumNodes()),
	}
	for _, n := range g.Nodes() {
		fp.entry[n.ID] = len(fp.Instrs)
		if n.IsEmpty() {
			fp.Instrs = append(fp.Instrs, FlatInstr{Node: n, Index: -1, Stmt: ir.Skip{}})
		} else {
			for i, s := range n.Stmts {
				fp.Instrs = append(fp.Instrs, FlatInstr{Node: n, Index: i, Stmt: s})
			}
		}
		fp.exit[n.ID] = len(fp.Instrs) - 1
	}
	// Chain instructions within blocks and across edges.
	for _, n := range g.Nodes() {
		for idx := fp.entry[n.ID]; idx < fp.exit[n.ID]; idx++ {
			fp.link(idx, idx+1)
		}
		last := fp.exit[n.ID]
		for _, s := range n.Succs() {
			fp.link(last, fp.entry[s.ID])
		}
	}
	return fp
}

func (fp *FlatProgram) link(from, to int) {
	fp.Instrs[from].Succs = append(fp.Instrs[from].Succs, to)
	fp.Instrs[to].Preds = append(fp.Instrs[to].Preds, from)
}

// Len returns the number of instructions.
func (fp *FlatProgram) Len() int { return len(fp.Instrs) }

// BlockEntry returns the index of the first instruction of n.
func (fp *FlatProgram) BlockEntry(n *cfg.Node) int { return fp.entry[n.ID] }

// BlockExit returns the index of the last instruction of n.
func (fp *FlatProgram) BlockExit(n *cfg.Node) int { return fp.exit[n.ID] }
