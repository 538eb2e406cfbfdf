package analysis

import (
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// DelayResult is the greatest solution of the delayability equation
// system of Table 2, from which Inserts derives the insertion
// predicates:
//
//	N-DELAYED_n = false                              if n = s
//	            = ∏_{m ∈ pred(n)} X-DELAYED_m        otherwise
//	X-DELAYED_n = LOCDELAYED_n + N-DELAYED_n · ¬LOCBLOCKED_n
//
//	N-INSERT_n  = N-DELAYED_n · LOCBLOCKED_n
//	X-INSERT_n  = X-DELAYED_n · Σ_{m ∈ succ(n)} ¬N-DELAYED_m
//
// Intuitively, N-DELAYED_n(α)/X-DELAYED_n(α) state that sinking
// candidates of α can be moved to the entry/exit of n; the insertion
// predicates mark the frontier where delaying must stop. After
// critical-edge splitting there are no exit insertions at branching
// nodes (footnote 6), and no insertion ever targets the end node's
// exit (the empty sum), which silently drops assignments that are dead
// along their remaining paths.
type DelayResult struct {
	Locals *Locals

	// NDelayed/XDelayed are indexed by cfg.NodeID, one bit per
	// pattern.
	NDelayed, XDelayed []*bitvec.Vector

	Stats dataflow.SolverStats
}

type delayProblem struct {
	locals *Locals
	bits   int
}

func (p *delayProblem) Bits() int                     { return p.bits }
func (p *delayProblem) Direction() dataflow.Direction { return dataflow.Forward }
func (p *delayProblem) Meet() dataflow.Meet           { return dataflow.Intersect }
func (p *delayProblem) Boundary() *bitvec.Vector      { return bitvec.New(p.bits) }
func (p *delayProblem) Top() *bitvec.Vector           { return bitvec.NewAllOnes(p.bits) }

func (p *delayProblem) Transfer(n *cfg.Node, in, out *bitvec.Vector) {
	// X = LOCDELAYED + N·¬LOCBLOCKED
	out.AndNotOrInto(in, p.locals.LocBlocked[n.ID], p.locals.LocDelayed[n.ID])
}

// GenKill exposes the transfer in canonical gen/kill form — Table 2's
// X-DELAYED equation already is one, with the candidate occurrences as
// gen and the blockades as kill — unlocking the solver's fused
// transfer.
func (p *delayProblem) GenKill(n *cfg.Node) (gen, kill *bitvec.Vector) {
	return p.locals.LocDelayed[n.ID], p.locals.LocBlocked[n.ID]
}

// Delayability solves Table 2 for graph g over pattern universe pt.
// The graph is expected to have its critical edges already split; the
// equations remain well-defined otherwise, but insertion points on
// critical edges would then be unrepresentable (Section 2.1).
func Delayability(g *cfg.Graph, pt *ir.PatternTable) *DelayResult {
	return NewDelaySolver(g, footprintsOf(g, pt)).Solve(nil)
}

// Inserts writes block n's insertion predicates N-INSERT and X-INSERT
// into ni and xi (Patterns.Len() bits each; overwritten). No result
// stores them: a reader computes them for the blocks it reads.
func (r *DelayResult) Inserts(n *cfg.Node, ni, xi *bitvec.Vector) {
	// N-INSERT ⊆ N-DELAYED and X-INSERT ⊆ X-DELAYED; the delay
	// solution is sparse (most blocks delay nothing), so an
	// early-exit zero scan usually replaces the full products.
	if r.NDelayed[n.ID].IsZero() {
		ni.ClearAll()
	} else {
		ni.AndInto(r.NDelayed[n.ID], r.Locals.LocBlocked[n.ID])
	}

	// X-INSERT = X-DELAYED · Σ_{m ∈ succ} ¬N-DELAYED_m: some
	// successor is not delayed. Empty sum (end node) is false.
	if r.XDelayed[n.ID].IsZero() {
		xi.ClearAll()
		return
	}
	switch succs := n.Succs(); len(succs) {
	case 0:
		xi.ClearAll()
	case 1:
		xi.AndNotInto(r.XDelayed[n.ID], r.NDelayed[succs[0].ID])
	default:
		xi.ClearAll()
		for _, m := range succs {
			xi.OrNot(r.NDelayed[m.ID])
		}
		xi.And(r.XDelayed[n.ID])
	}
}

// DelaySolver solves the delayability system repeatedly on one graph
// whose block contents mutate between solves. It owns the pattern
// blocking index, the local predicates, and the solution storage, and
// reads statements through a Footprints index it may share with an
// ElimSolver; a solve after k blocks changed recomputes k blocks'
// locals and re-iterates only the affected region (the dirty blocks
// and their transitive successors — delayability flows forward).
//
// The pattern universe is fixed at creation and must cover every
// pattern of every version of the program the solver sees. A superset
// is exact: a pattern with no remaining occurrence has LOCDELAYED
// false everywhere, and since the start node's boundary is the empty
// set and every node is reachable from it, the greatest solution
// assigns it X-DELAYED = false everywhere — no spurious insertions.
type DelaySolver struct {
	g      *cfg.Graph
	index  *PatternIndex
	locals *Locals
	solver *dataflow.Solver
	res    DelayResult

	scratch *bitvec.Vector // locals sweep scratch

	// hot, when non-nil, is the region sinking is confined to; the
	// locals of every other block stay frozen (Locals.Freeze).
	hot func(*cfg.Node) bool
}

// NewDelaySolver creates a solver for g over the pattern universe of
// fp, resolving statements through fp.
func NewDelaySolver(g *cfg.Graph, fp *Footprints) *DelaySolver {
	ix := NewPatternIndex(fp)
	bits := fp.Patterns.Len()
	s := &DelaySolver{
		g:       g,
		index:   ix,
		locals:  ix.Locals(g),
		scratch: bitvec.New(bits),
	}
	s.solver = dataflow.NewSolver(g, &delayProblem{locals: s.locals, bits: bits})
	sol := s.solver.Result()
	s.res = DelayResult{Locals: s.locals, NDelayed: sol.In, XDelayed: sol.Out}
	return s
}

// SetRegion confines sinking to the blocks hot accepts — the paper's
// Section 7 hot areas. It freezes every other block's locals now, and
// Solve freezes them again whenever it recomputes them: a cold block
// can be dirty, because code arriving from a hot neighbour lands at its
// entry. A nil hot leaves the whole program in the region. Call it
// before the first Solve.
func (s *DelaySolver) SetRegion(hot func(*cfg.Node) bool) {
	s.hot = hot
	for _, n := range s.g.Nodes() {
		s.restrict(n)
	}
}

// restrict freezes n's locals when n lies outside the region.
func (s *DelaySolver) restrict(n *cfg.Node) {
	if s.hot != nil && !s.hot(n) {
		s.locals.Freeze(n.ID)
	}
}

// SetCancel installs a cancellation check on the underlying worklist
// solver (see dataflow.Solver.SetCancel). A cancelled Solve returns a
// partial result flagged Stats.Cancelled that must not justify any
// sinking.
func (s *DelaySolver) SetCancel(cancel func() bool) { s.solver.SetCancel(cancel) }

// SetMetrics installs a telemetry sink recording every solve this
// solver performs, including the cached-solution fast path. A nil sink
// (the default) collects nothing.
func (s *DelaySolver) SetMetrics(m *obs.SolverMetrics) { s.solver.SetMetrics(m) }

// Solve re-solves after the given blocks changed: their local
// predicates are recomputed (and frozen again outside the region) and
// the fixpoint is re-seeded over the affected region. A nil dirty set
// on a solved instance returns the cached solution; the first call,
// and the first after a cancelled one, solves in full. A cancelled
// solve's partial solution justifies no sinking. The returned result
// aliases the solver's storage and is invalidated by the next Solve.
func (s *DelaySolver) Solve(dirty []cfg.NodeID) *DelayResult {
	for _, id := range dirty {
		n := s.g.Node(id)
		s.index.UpdateBlock(s.locals, n, s.scratch)
		s.restrict(n)
	}
	sol := s.solver.Resolve(dirty)
	s.res.Stats = sol.Stats
	return &s.res
}

// Stable reports whether the assignment sinking transformation induced
// by this solution leaves the program invariant — the paper's
// termination condition (Section 5.4): every block n satisfies
// N-INSERT_n = false and X-INSERT_n = LOCDELAYED_n.
func (r *DelayResult) Stable(g *cfg.Graph) bool {
	bits := r.Locals.Patterns.Len()
	ni, xi := bitvec.New(bits), bitvec.New(bits)
	for _, n := range g.Nodes() {
		r.Inserts(n, ni, xi)
		if !ni.IsZero() || !xi.Equal(r.Locals.LocDelayed[n.ID]) {
			return false
		}
	}
	return true
}
