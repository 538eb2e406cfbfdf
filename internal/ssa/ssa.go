// Package ssa builds static single assignment form over flow graphs
// (Cytron, Ferrante, Rosen, Wegman, Zadeck — reference [5] of the
// paper) and implements the sparse def-use dead code elimination that
// the paper cites as the strongest conventional elimination baseline:
// mark every definition transitively needed by a relevant statement,
// sweep the rest.
//
// The construction is non-destructive: SSA is an overlay of
// definition objects and use links over an existing cfg.Graph; the
// graph's statements are never rewritten. Eliminate clones the graph
// and removes the unmarked assignments.
//
// SSA-based sweeping removes exactly the faint assignments: a
// definition stays only if a use chain connects it to an out or
// branch statement, which is the contrapositive of the faint
// criterion of Table 1. The test suite cross-validates this against
// iterated faint code elimination.
package ssa

import (
	"fmt"

	"pdce/internal/cfg"
	"pdce/internal/ir"
)

// Def is one SSA definition: a parameterless "undef" at the start
// node, a phi at a join, or an assignment occurrence.
type Def struct {
	ID      int
	Var     ir.Var
	Version int

	// Kind discrimination: exactly one of the following shapes.
	IsUndef bool
	IsPhi   bool
	// Node/StmtIndex locate an assignment occurrence (IsPhi and
	// IsUndef false) or the join block of a phi.
	Node      *cfg.Node
	StmtIndex int

	// Operands are the definition IDs this definition reads: the
	// RHS variable defs of an assignment, or one entry per
	// predecessor for a phi (aligned with Node.Preds()).
	Operands []int
}

// Name renders the SSA name, e.g. "x.3".
func (d *Def) Name() string { return fmt.Sprintf("%s.%d", d.Var, d.Version) }

// Program is the SSA overlay.
type Program struct {
	Graph *cfg.Graph
	Defs  []*Def

	// PhisAt lists the phi definitions of each block (by NodeID).
	PhisAt [][]*Def

	// DefAt[nodeID][stmtIndex] is the def created by that
	// assignment occurrence, or nil.
	DefAt [][]*Def

	// UsesAt[nodeID][stmtIndex] lists the def IDs read by that
	// statement (for assignments, outs and branches).
	UsesAt [][][]int

	// NumPhis counts placed phi functions.
	NumPhis int
}

// Build constructs minimal SSA form for g. g must be valid; every node
// is assumed reachable (cfg.Validate guarantees this).
func Build(g *cfg.Graph) *Program {
	p := &Program{
		Graph:  g,
		PhisAt: make([][]*Def, g.NumNodes()),
		DefAt:  make([][]*Def, g.NumNodes()),
		UsesAt: make([][][]int, g.NumNodes()),
	}
	for _, n := range g.Nodes() {
		p.DefAt[n.ID] = make([]*Def, len(n.Stmts))
		p.UsesAt[n.ID] = make([][]int, len(n.Stmts))
	}

	dom := cfg.BuildDomTree(g)
	df := dom.DominanceFrontiers()

	// Collect the blocks defining each variable.
	defBlocks := make(map[ir.Var][]*cfg.Node)
	seenIn := make(map[ir.Var]map[*cfg.Node]bool)
	for _, n := range g.Nodes() {
		for _, s := range n.Stmts {
			if d, ok := ir.Def(s); ok {
				if seenIn[d] == nil {
					seenIn[d] = make(map[*cfg.Node]bool)
				}
				if !seenIn[d][n] {
					seenIn[d][n] = true
					defBlocks[d] = append(defBlocks[d], n)
				}
			}
		}
	}

	// Phi placement at iterated dominance frontiers.
	for v, blocks := range defBlocks {
		hasPhi := make(map[*cfg.Node]bool)
		work := append([]*cfg.Node(nil), blocks...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, j := range df[b] {
				if hasPhi[j] {
					continue
				}
				hasPhi[j] = true
				phi := &Def{
					ID:       len(p.Defs),
					Var:      v,
					IsPhi:    true,
					Node:     j,
					Operands: make([]int, len(j.Preds())),
				}
				p.Defs = append(p.Defs, phi)
				p.PhisAt[j.ID] = append(p.PhisAt[j.ID], phi)
				p.NumPhis++
				if !seenIn[v][j] {
					seenIn[v][j] = true
					work = append(work, j)
				}
			}
		}
	}

	// Renaming: dominator-tree walk with per-variable def stacks.
	// Every variable starts with an undef definition so uses of
	// uninitialized variables resolve (the paper's programs read
	// free variables like a, b at will).
	stacks := make(map[ir.Var][]*Def)
	versions := make(map[ir.Var]int)
	undefs := make(map[ir.Var]*Def)
	current := func(v ir.Var) *Def {
		if st := stacks[v]; len(st) > 0 {
			return st[len(st)-1]
		}
		u := undefs[v]
		if u == nil {
			u = &Def{ID: len(p.Defs), Var: v, IsUndef: true, Node: g.Start}
			p.Defs = append(p.Defs, u)
			undefs[v] = u
		}
		return u
	}

	var rename func(n *cfg.Node)
	rename = func(n *cfg.Node) {
		push := func(d *Def) {
			versions[d.Var]++
			d.Version = versions[d.Var]
			stacks[d.Var] = append(stacks[d.Var], d)
		}
		for _, phi := range p.PhisAt[n.ID] {
			push(phi)
		}
		for si, s := range n.Stmts {
			var uses []int
			ir.Uses(s, func(v ir.Var) { uses = append(uses, current(v).ID) })
			p.UsesAt[n.ID][si] = uses
			if dvar, ok := ir.Def(s); ok {
				d := &Def{ID: len(p.Defs), Var: dvar, Node: n, StmtIndex: si}
				p.Defs = append(p.Defs, d)
				d.Operands = uses
				p.DefAt[n.ID][si] = d
				push(d)
			}
		}
		for _, succ := range n.Succs() {
			// Which predecessor position is n for succ?
			pos := -1
			for i, pr := range succ.Preds() {
				if pr == n {
					pos = i
					break
				}
			}
			for _, phi := range p.PhisAt[succ.ID] {
				phi.Operands[pos] = current(phi.Var).ID
			}
		}
		for _, child := range dom.Children(n) {
			rename(child)
		}
		// Pop this block's definitions.
		for _, phi := range p.PhisAt[n.ID] {
			st := stacks[phi.Var]
			stacks[phi.Var] = st[:len(st)-1]
		}
		for _, d := range p.DefAt[n.ID] {
			if d != nil {
				st := stacks[d.Var]
				stacks[d.Var] = st[:len(st)-1]
			}
		}
	}
	rename(g.Start)
	return p
}

// MarkLive runs the optimistic mark phase: definitions reachable from
// relevant statements through operand edges. It returns the marked
// set, indexed by Def.ID.
func (p *Program) MarkLive() []bool {
	marked := make([]bool, len(p.Defs))
	var queue []int
	mark := func(id int) {
		if !marked[id] {
			marked[id] = true
			queue = append(queue, id)
		}
	}
	for _, n := range p.Graph.Nodes() {
		for si, s := range n.Stmts {
			if ir.IsRelevant(s) {
				for _, id := range p.UsesAt[n.ID][si] {
					mark(id)
				}
			}
		}
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, op := range p.Defs[id].Operands {
			mark(op)
		}
	}
	return marked
}

// Eliminate clones g and removes every assignment whose SSA definition
// is not transitively needed by a relevant statement. It returns the
// transformed graph and the number of assignments removed.
func Eliminate(g *cfg.Graph) (*cfg.Graph, int) {
	out := g.Clone()
	p := Build(out)
	marked := p.MarkLive()
	removed := 0
	for _, n := range out.Nodes() {
		if len(n.Stmts) == 0 {
			continue
		}
		defs := p.DefAt[n.ID]
		kept := n.Stmts[:0]
		for si := range n.Stmts {
			if d := defs[si]; d != nil && !marked[d.ID] {
				removed++
				continue
			}
			kept = append(kept, n.Stmts[si])
		}
		n.Stmts = kept
	}
	return out, removed
}

// String renders the SSA program for debugging and documentation
// examples: each block with its phis and renamed statements.
func (p *Program) String() string {
	var out []byte
	appendf := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)...)
	}
	for _, n := range p.Graph.Nodes() {
		appendf("%s:\n", n.Label)
		for _, phi := range p.PhisAt[n.ID] {
			appendf("  %s = phi(", phi.Name())
			for i, op := range phi.Operands {
				if i > 0 {
					appendf(", ")
				}
				appendf("%s", p.Defs[op].Name())
			}
			appendf(")\n")
		}
		for si, s := range n.Stmts {
			if d := p.DefAt[n.ID][si]; d != nil {
				appendf("  %s = %s\n", d.Name(), s.(ir.Assign).RHS)
			} else {
				appendf("  %s\n", s)
			}
		}
	}
	return string(out)
}
