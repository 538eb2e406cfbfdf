// Package cfg implements the directed flow graphs G = (N, E, s, e) of
// the paper: nodes are basic blocks of statements, edges form the
// nondeterministic branching structure, and s and e are the unique
// start and end nodes, both empty, with no predecessors and no
// successors respectively (Section 2).
//
// The package also provides the structural machinery the algorithm and
// its baselines need: critical-edge splitting (Section 2.1), traversal
// orders, dominators and dominance frontiers (for the SSA baseline),
// cloning, structural comparison, and text/DOT rendering.
package cfg

import (
	"fmt"

	"pdce/internal/ir"
)

// NodeID densely numbers the nodes of a graph in creation order. IDs
// are stable across transformations that do not add nodes; splitting
// critical edges appends new IDs.
type NodeID int

// Node is a basic block.
type Node struct {
	ID    NodeID
	Label string // human-readable name; unique within the graph
	Stmts []ir.Stmt

	// Synthetic marks nodes inserted by critical-edge splitting
	// (the paper's S_{m,n} nodes). Synthetic nodes that remain
	// empty after optimization can be removed for presentation.
	Synthetic bool

	succs []*Node
	preds []*Node
}

// Succs returns the successor blocks in edge order. For a block ending
// in an ir.Branch, Succs()[0] is the branch-taken target. The returned
// slice is owned by the graph; callers must not modify it.
func (n *Node) Succs() []*Node { return n.succs }

// Preds returns the predecessor blocks. The returned slice is owned by
// the graph; callers must not modify it.
func (n *Node) Preds() []*Node { return n.preds }

// IsEmpty reports whether the block contains no statements (pure skip).
func (n *Node) IsEmpty() bool { return len(n.Stmts) == 0 }

// Terminator returns the block's final statement if it is a Branch.
func (n *Node) Terminator() (ir.Branch, bool) {
	if len(n.Stmts) == 0 {
		return ir.Branch{}, false
	}
	b, ok := n.Stmts[len(n.Stmts)-1].(ir.Branch)
	return b, ok
}

// Graph is a flow graph with unique start and end nodes.
type Graph struct {
	Name  string
	Start *Node
	End   *Node

	nodes   []*Node
	byLabel map[string]*Node
}

// New creates a graph with fresh, empty start and end nodes labeled
// "s" and "e".
func New(name string) *Graph {
	g := &Graph{Name: name, byLabel: make(map[string]*Node)}
	g.Start = g.AddNode("s")
	g.End = g.AddNode("e")
	return g
}

// AddNode creates a block with the given label. It panics if the label
// is already taken: labels name nodes in test expectations and error
// messages, so collisions are programming errors.
func (g *Graph) AddNode(label string) *Node {
	if _, dup := g.byLabel[label]; dup {
		panic(fmt.Sprintf("cfg: duplicate node label %q in graph %q", label, g.Name))
	}
	n := &Node{ID: NodeID(len(g.nodes)), Label: label}
	g.nodes = append(g.nodes, n)
	g.byLabel[label] = n
	return n
}

// NumNodes returns the number of nodes ever added (including start and
// end).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// NodeByLabel returns the node with the given label, if present.
func (g *Graph) NodeByLabel(label string) (*Node, bool) {
	n, ok := g.byLabel[label]
	return n, ok
}

// Nodes returns all nodes in ID order. The slice is owned by the graph.
func (g *Graph) Nodes() []*Node { return g.nodes }

// AddEdge appends an edge from a to b. Multi-edges are rejected: the
// paper's model has at most one edge between a pair of nodes, and a
// duplicate always indicates a construction bug.
func (g *Graph) AddEdge(a, b *Node) {
	for _, s := range a.succs {
		if s == b {
			panic(fmt.Sprintf("cfg: duplicate edge %s->%s", a.Label, b.Label))
		}
	}
	a.succs = append(a.succs, b)
	b.preds = append(b.preds, a)
}

// HasEdge reports whether an edge a->b exists.
func (g *Graph) HasEdge(a, b *Node) bool {
	for _, s := range a.succs {
		if s == b {
			return true
		}
	}
	return false
}

// redirectEdge replaces the edge a->b with a->mid and mid->b,
// preserving a's successor order (important for branch targets) and
// b's predecessor order.
func (g *Graph) redirectEdge(a, b, mid *Node) {
	replaced := false
	for i, s := range a.succs {
		if s == b {
			a.succs[i] = mid
			replaced = true
			break
		}
	}
	if !replaced {
		panic(fmt.Sprintf("cfg: redirect of missing edge %s->%s", a.Label, b.Label))
	}
	for i, p := range b.preds {
		if p == a {
			b.preds[i] = mid
			break
		}
	}
	mid.succs = append(mid.succs, b)
	mid.preds = append(mid.preds, a)
}

// Edge is a pair of nodes connected by an edge.
type Edge struct {
	From, To *Node
}

// Edges returns every edge, ordered by source ID then successor
// position.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, n := range g.nodes {
		for _, s := range n.succs {
			out = append(out, Edge{From: n, To: s})
		}
	}
	return out
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	c := 0
	for _, n := range g.nodes {
		c += len(n.succs)
	}
	return c
}

// NumStmts returns the total number of statements over all blocks —
// the paper's instruction count i.
func (g *Graph) NumStmts() int {
	c := 0
	for _, n := range g.nodes {
		c += len(n.Stmts)
	}
	return c
}

// NumAssignments returns the number of assignment statements.
func (g *Graph) NumAssignments() int {
	c := 0
	for _, n := range g.nodes {
		for _, s := range n.Stmts {
			if _, ok := s.(ir.Assign); ok {
				c++
			}
		}
	}
	return c
}

// CollectVars returns a VarTable over every variable occurring in the
// program, in first-occurrence order (ID order of blocks, then
// statement order).
func (g *Graph) CollectVars() *ir.VarTable {
	t := ir.NewVarTable()
	for _, n := range g.nodes {
		for _, s := range n.Stmts {
			t.AddStmt(s)
		}
	}
	return t
}

// CollectPatterns returns a PatternTable over every assignment pattern
// occurring in the program.
func (g *Graph) CollectPatterns() *ir.PatternTable {
	t := ir.NewPatternTable(0)
	for _, n := range g.nodes {
		for _, s := range n.Stmts {
			if a, ok := s.(ir.Assign); ok {
				t.Add(a)
			}
		}
	}
	return t
}

// ForEachStmt calls f for every statement, in block-ID then
// statement order, with its owning node and index.
func (g *Graph) ForEachStmt(f func(n *Node, idx int, s ir.Stmt)) {
	for _, n := range g.nodes {
		for i, s := range n.Stmts {
			f(n, i, s)
		}
	}
}
