package core

import "pdce/internal/cfg"

// HotPredicate selects the blocks the optimizer may rearrange — the
// "hot areas" localization the paper proposes in Section 7 for
// limiting the cost of the exhaustive iteration. Cold blocks are
// treated as opaque: no candidate inside them moves, nothing sinks
// through them (they block every pattern, so arriving code lands at
// their entry), and no assignment inside them is eliminated. The
// restriction is purely a strengthening of the local predicates, so
// correctness is inherited from the unrestricted algorithm.
type HotPredicate func(n *cfg.Node) bool

// effectiveHot extends the user predicate of a run on g to the nodes
// it cannot judge; it is nil when hot is. The end node is always hot:
// it holds no code, and code sinking off the end of the program is
// dropped as in the unrestricted run rather than landing in it. A
// synthetic node did not exist when the predicate was written; it is
// hot when any neighbour is (it sits on an edge between them and must
// not cut a hot path).
func effectiveHot(g *cfg.Graph, hot HotPredicate) HotPredicate {
	if hot == nil {
		return nil
	}
	return func(n *cfg.Node) bool {
		if n == g.End {
			return true
		}
		if !n.Synthetic {
			return hot(n)
		}
		for _, p := range n.Preds() {
			if !p.Synthetic && hot(p) {
				return true
			}
		}
		for _, s := range n.Succs() {
			if !s.Synthetic && hot(s) {
				return true
			}
		}
		return false
	}
}
