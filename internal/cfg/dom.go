package cfg

// DomTree holds the immediate-dominator relation of a graph, computed
// with the iterative algorithm of Cooper, Harvey and Kennedy ("A
// Simple, Fast Dominance Algorithm"). It is the substrate for the SSA
// construction used by the def-use-based dead code elimination
// baseline (Cytron et al., reference [5] of the paper).
type DomTree struct {
	g *Graph
	// idom[id] is the immediate dominator of node id; idom of Start
	// is Start itself; nil for unreachable nodes.
	idom []*Node
	// children of each node in the dominator tree.
	children [][]*Node
	// rpoIndex[id] is the node's position in reverse postorder, or
	// -1 for unreachable nodes.
	rpoIndex []int
}

// BuildDomTree computes the dominator tree of the subgraph reachable
// from Start.
func BuildDomTree(g *Graph) *DomTree {
	rpo := ReversePostorder(g)
	t := &DomTree{
		g:        g,
		idom:     make([]*Node, len(g.nodes)),
		children: make([][]*Node, len(g.nodes)),
		rpoIndex: make([]int, len(g.nodes)),
	}
	for i := range t.rpoIndex {
		t.rpoIndex[i] = -1
	}
	for i, n := range rpo {
		t.rpoIndex[n.ID] = i
	}
	t.idom[g.Start.ID] = g.Start
	for changed := true; changed; {
		changed = false
		for _, n := range rpo {
			if n == g.Start {
				continue
			}
			var newIdom *Node
			for _, p := range n.preds {
				if t.idom[p.ID] == nil {
					continue // p not yet processed / unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[n.ID] != newIdom {
				t.idom[n.ID] = newIdom
				changed = true
			}
		}
	}
	for _, n := range rpo {
		if n == g.Start {
			continue
		}
		if d := t.idom[n.ID]; d != nil {
			t.children[d.ID] = append(t.children[d.ID], n)
		}
	}
	return t
}

func (t *DomTree) intersect(a, b *Node) *Node {
	for a != b {
		for t.rpoIndex[a.ID] > t.rpoIndex[b.ID] {
			a = t.idom[a.ID]
		}
		for t.rpoIndex[b.ID] > t.rpoIndex[a.ID] {
			b = t.idom[b.ID]
		}
	}
	return a
}

// IDom returns the immediate dominator of n (Start for Start itself;
// nil for nodes unreachable from Start).
func (t *DomTree) IDom(n *Node) *Node {
	if n == t.g.Start {
		return t.g.Start
	}
	return t.idom[n.ID]
}

// Children returns n's children in the dominator tree.
func (t *DomTree) Children(n *Node) []*Node { return t.children[n.ID] }

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *Node) bool {
	if t.rpoIndex[b.ID] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == t.g.Start {
			return false
		}
		b = t.idom[b.ID]
		if b == nil {
			return false
		}
	}
}

// DominanceFrontiers computes DF(n) for every reachable node, per
// Cooper-Harvey-Kennedy: for each join node j and predecessor p, every
// node on the idom-chain from p up to (but excluding) idom(j) has j in
// its frontier.
func (t *DomTree) DominanceFrontiers() map[*Node][]*Node {
	df := make(map[*Node][]*Node)
	in := make(map[*Node]map[*Node]bool)
	add := func(n, j *Node) {
		if in[n] == nil {
			in[n] = make(map[*Node]bool)
		}
		if !in[n][j] {
			in[n][j] = true
			df[n] = append(df[n], j)
		}
	}
	for _, j := range t.g.nodes {
		if t.rpoIndex[j.ID] < 0 || len(j.preds) < 2 {
			continue
		}
		for _, p := range j.preds {
			if t.rpoIndex[p.ID] < 0 {
				continue
			}
			runner := p
			for runner != t.idom[j.ID] && runner != nil {
				add(runner, j)
				if runner == t.g.Start {
					break
				}
				runner = t.idom[runner.ID]
			}
		}
	}
	return df
}
