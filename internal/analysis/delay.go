package analysis

import (
	"sync"

	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
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

	// scan, after an incremental solve, holds its touched blocks and
	// their predecessors (X-INSERT reads the successors' N-DELAYED):
	// every other block kept its locals, its delay values and its
	// successors' N-DELAYED since the previous solve.
	scan scanSet
}

// NeedsScan reports whether the sinking step must examine block id, or
// may skip it because nothing its insertion predicates read moved since
// the previous solve. The previous sinking step left such a block
// stable (a block it rewrote is dirty, so touched): N-INSERT is empty
// and X-INSERT equals LOCDELAYED. After a full solve every block needs
// a scan.
func (r *DelayResult) NeedsScan(id cfg.NodeID) bool { return r.scan.has(id) }

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

// Delayability solves Table 2 for graph g over the pattern universe of
// its statement index (NewFootprints), which numbers patterns as
// g.CollectPatterns does; Locals.Patterns holds it. The graph is
// expected to have its critical edges already split; the equations
// remain well-defined otherwise, but insertion points on critical edges
// would then be unrepresentable (Section 2.1).
func Delayability(g *cfg.Graph) *DelayResult {
	// The result outlives the call, so its rows are its own.
	return newDelaySolver(g, NewFootprints(g), new(bitvec.Slab)).Solve(nil)
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
// locals and re-iterates only where the new locals can move the
// solution (see Solve).
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

	// slab backs the four pattern-wide row families: LOCDELAYED,
	// LOCBLOCKED, N-DELAYED and X-DELAYED, and old, update's scratch
	// row: a block's LOCDELAYED before the rewrite.
	slab *bitvec.Slab
	old  *bitvec.Vector

	// hot, when non-nil, is the region sinking is confined to; the
	// locals of every other block stay frozen (Locals.Freeze).
	hot func(*cfg.Node) bool
}

// delaySlabs recycles delayability row storage from one run to the
// next: the four families are a nodes × patterns bit matrix each, most
// of the bytes a run allocates. A slab is not cleared on reuse, and
// needs not be: UpdateBlock (or Freeze) writes both locals rows of
// every block, and a full solve writes every N-DELAYED and X-DELAYED
// row, before anything reads them.
var delaySlabs = sync.Pool{New: func() any { return new(bitvec.Slab) }}

// NewDelaySolver creates a solver for g over the pattern universe of
// fp, resolving statements through fp. Its row storage comes from a
// pool; Release hands it back.
func NewDelaySolver(g *cfg.Graph, fp *Footprints) *DelaySolver {
	return newDelaySolver(g, fp, delaySlabs.Get().(*bitvec.Slab))
}

// newDelaySolver creates a solver whose rows are carved from slab,
// whatever slab holds.
func newDelaySolver(g *cfg.Graph, fp *Footprints, slab *bitvec.Slab) *DelaySolver {
	ix := NewPatternIndex(fp)
	bits := fp.Patterns.Len()
	n := g.NumNodes()
	rows := slab.Rows(4*n+1, bits)
	s := &DelaySolver{g: g, index: ix, slab: slab, old: rows[4*n]}
	s.locals = ix.Locals(g, rows[:n:n], rows[n:2*n:2*n])
	s.solver = dataflow.NewSolverOn(g, &delayProblem{locals: s.locals, bits: bits}, rows[2*n:3*n:3*n], rows[3*n:4*n:4*n])
	sol := s.solver.Result()
	s.res = DelayResult{Locals: s.locals, NDelayed: sol.In, XDelayed: sol.Out}
	return s
}

// Release hands the solver's row storage back to the pool for the next
// solver. Neither s nor any result or locals it returned may be used
// afterwards. A solver that is never released keeps its storage.
func (s *DelaySolver) Release() {
	delaySlabs.Put(s.slab)
	s.slab = nil
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

// Solve re-solves after the given blocks changed (see
// dataflow.Solver.Resolve). Their local predicates are recomputed (and
// frozen again outside the region), and the re-solve raises the
// previous solution only by the patterns a dirty block newly delays or
// no longer blocks, carried forward through the blocks that do not
// block them. The sinking step then examines only the blocks the solve
// touched and their predecessors (DelayResult.NeedsScan). A nil dirty
// set on a solved instance returns the cached solution; the first
// call, and the first after a cancelled one, solves in full. A
// cancelled solve's partial solution justifies no sinking. The
// returned result aliases the solver's storage and is invalidated by
// the next Solve.
func (s *DelaySolver) Solve(dirty []cfg.NodeID) *DelayResult {
	sol := s.solver.Resolve(dirty, s.update)
	s.res.Stats = sol.Stats
	s.res.scan.set(s.g, sol.Touched, true)
	return &s.res
}

// update is delayability's dataflow.Update: it recomputes n's locals,
// frozen again outside the region, and writes into rise the patterns n
// newly delays or no longer blocks, (LOCDELAYED′ ∖ LOCDELAYED) ∪
// (LOCBLOCKED ∖ LOCBLOCKED′).
func (s *DelaySolver) update(n *cfg.Node, rise *bitvec.Vector) {
	ld, lb := s.locals.LocDelayed[n.ID], s.locals.LocBlocked[n.ID]
	s.old.CopyFrom(ld)
	rise.CopyFrom(lb)
	s.index.UpdateBlock(s.locals, n)
	s.restrict(n)
	rise.AndNot(lb)
	rise.OrAndNot(ld, s.old)
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
