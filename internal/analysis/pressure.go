package analysis

import (
	"pdce/internal/cfg"
)

// PressureStats summarizes variable liveness as a register-pressure
// proxy. The paper's delayability analysis descends from lazy code
// motion's, whose purpose was minimizing the lifetimes of temporaries
// (Section 5.3); this metric lets experiments report how the
// assignment motions of this repository move that needle. Note the
// effect of sinking is inherently two-sided: the moved assignment's
// target range shrinks while its operands' ranges stretch down to the
// new location — so this is measurement machinery, not a guaranteed
// win.
type PressureStats struct {
	// Points is the number of instruction-entry program points
	// sampled (one per flat instruction).
	Points int
	// Total is the sum over all points of the number of live
	// variables; Total/Points is the mean pressure.
	Total int
	// Max is the largest number of simultaneously live variables.
	Max int
}

// Mean returns the average number of live variables per point.
func (p PressureStats) Mean() float64 {
	if p.Points == 0 {
		return 0
	}
	return float64(p.Total) / float64(p.Points)
}

// Pressure computes liveness pressure at instruction granularity:
// a variable is live at a point when it is not dead there (Table 1's
// complement).
func Pressure(g *cfg.Graph) PressureStats {
	dead := DeadVars(g)
	nv := dead.Vars.Len()

	var st PressureStats
	for _, n := range g.Nodes() {
		// Walk the block's footprints backwards reconstructing
		// per-instruction entry deadness, then count complements.
		cur := dead.X[n.ID].Copy()
		c := dead.prob.fp.block(n)
		counts := make([]int, len(n.Stmts)+1)
		counts[len(n.Stmts)] = nv - cur.Count()
		for si := len(n.Stmts) - 1; si >= 0; si-- {
			dead.prob.step(c, si, cur)
			counts[si] = nv - cur.Count()
		}
		// One sample per instruction entry; empty blocks sample
		// their single implicit point.
		if len(n.Stmts) == 0 {
			st.Points++
			st.Total += counts[0]
			if counts[0] > st.Max {
				st.Max = counts[0]
			}
			continue
		}
		for si := 0; si < len(n.Stmts); si++ {
			st.Points++
			st.Total += counts[si]
			if counts[si] > st.Max {
				st.Max = counts[si]
			}
		}
	}
	return st
}
