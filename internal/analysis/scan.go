package analysis

import "pdce/internal/cfg"

// scanSet confines a rewrite step to the blocks an incremental solve
// may have moved. A block outside it kept its statements and every
// solution value the step reads since the previous solve, so the
// previous pass over it left it settled. The zero value confines
// nothing. Membership is an epoch stamp, so a new set costs no
// clearing.
type scanSet struct {
	stamp      []uint32 // by NodeID: the epoch that last added the block
	epoch      uint32
	restricted bool
}

// has reports whether the step must examine block id.
func (s *scanSet) has(id cfg.NodeID) bool {
	return !s.restricted || s.stamp[id] == s.epoch
}

// set confines the step to the touched blocks of a solve and, with
// preds, to every predecessor of one. A nil touched (a full or
// cancelled solve) lifts the restriction.
func (s *scanSet) set(g *cfg.Graph, touched []cfg.NodeID, preds bool) {
	if s.restricted = touched != nil; !s.restricted {
		return
	}
	if s.stamp == nil {
		s.stamp = make([]uint32, g.NumNodes())
	}
	if s.epoch++; s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	for _, id := range touched {
		s.stamp[id] = s.epoch
		if preds {
			for _, p := range g.Node(id).Preds() {
				s.stamp[p.ID] = s.epoch
			}
		}
	}
}
