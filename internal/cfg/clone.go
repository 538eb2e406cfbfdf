package cfg

import "pdce/internal/ir"

// Clone returns a deep copy of the graph: fresh nodes with copied
// statement slices and copied adjacency. Statements themselves are
// immutable and shared.
//
// The copy is built from three slabs — one of nodes, one of
// statements, one of adjacency — so its allocation count does not grow
// with the graph. Every block's statement, successor and predecessor
// slice is capacity-capped at its own length: a later append
// reallocates it instead of writing into its neighbour's.
//
// The optimizer drivers clone their input so the caller's graph is
// never mutated, and the verifier clones to compare before/after.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name, byLabel: make(map[string]*Node, len(g.byLabel))}
	nodes := make([]Node, len(g.nodes))
	c.nodes = make([]*Node, len(g.nodes))
	stmts := make([]ir.Stmt, g.NumStmts())
	adj := make([]*Node, 2*g.NumEdges())
	for i, n := range g.nodes {
		m := &nodes[i]
		m.ID, m.Label, m.Synthetic = n.ID, n.Label, n.Synthetic
		if k := len(n.Stmts); k > 0 {
			m.Stmts = stmts[:k:k]
			copy(m.Stmts, n.Stmts)
			stmts = stmts[k:]
		}
		c.nodes[i] = m
		c.byLabel[m.Label] = m
	}
	link := func(src []*Node) []*Node {
		k := len(src)
		dst := adj[:k:k]
		adj = adj[k:]
		for j, s := range src {
			dst[j] = c.nodes[s.ID]
		}
		return dst
	}
	for i, n := range g.nodes {
		m := c.nodes[i]
		m.succs = link(n.succs)
		m.preds = link(n.preds)
	}
	c.Start = c.nodes[g.Start.ID]
	c.End = c.nodes[g.End.ID]
	return c
}
