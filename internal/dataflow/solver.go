// Package dataflow provides the two solving regimes the paper's
// analyses need:
//
//   - a block-level worklist solver for monotone vector problems: the
//     bit-vector analyses of Tables 1 and 2 (dead variables,
//     delayability) and Table 1's faint variables, whose block
//     transfer is monotone but not gen/kill; and
//   - an instruction-level flattening of a flow graph (FlatProgram),
//     on which the paper's slotwise worklist algorithm of Dhamdhere,
//     Rosen and Zadeck solves the faint-variable problem (Section 5.2,
//     Section 6.1.2) — the reference the block-level faint solve is
//     tested against.
//
// All paper analyses take greatest fixpoints: solvers initialize to the
// problem's top value and iterate downwards. Solvers record iteration
// statistics so cmd/benchpaper can report empirical convergence
// behaviour against Section 6's estimates.
//
// Beyond the one-shot Solve, the Solver type supports the fixpoint
// driver's round structure: it owns its In/Out storage (one row slab
// per side, reused across solves) and can re-solve incrementally after
// a known set of blocks changed, re-seeding from the previous solution
// instead of re-initializing the whole graph to top, and it reports
// which nodes' values may have moved (Result.Touched) so callers can
// confine their own follow-up work to that region.
//
// One engine solves every block-level problem: a priority worklist
// over the whole graph. Nodes drain in solve order (reverse postorder
// for forward problems, postorder for backward ones), so each sweep is
// a Hecht/Ullman round-robin pass and the number of wraparounds is the
// real convergence pass count. Problems in gen/kill form get a fused
// transfer: one word-parallel AndNotOrInto pass per visit that also
// reports whether the value changed.
package dataflow

import (
	"math/bits"

	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/faultinject"
	"pdce/internal/obs"
)

// Direction of a dataflow problem.
type Direction int

// Problem directions.
const (
	Forward Direction = iota
	Backward
)

// Meet is the confluence operator combining values flowing into a
// node.
type Meet int

// Confluence operators. Intersect realizes "on all paths" (product in
// the paper's equation systems), Union realizes "on some path".
const (
	Intersect Meet = iota
	Union
)

// VectorProblem describes a monotone block-level vector problem.
//
// For Forward problems the solver computes
//
//	In(n)  = meet over p ∈ pred(n) of Out(p)      (Boundary at Start)
//	Out(n) = Transfer(n, In(n))
//
// and dually for Backward problems (In/Out swap roles: Out(n) is met
// over successors, In(n) = Transfer over the block).
type VectorProblem interface {
	// Bits is the width of the vectors (size of the analysis
	// universe).
	Bits() int

	Direction() Direction
	Meet() Meet

	// Boundary is the fixed value at the graph boundary: the entry
	// value of Start for forward problems, the exit value of End
	// for backward problems.
	Boundary() *bitvec.Vector

	// Top is the initial optimistic value for all other nodes. The
	// paper's analyses compute greatest solutions, so Top is
	// all-ones for them.
	Top() *bitvec.Vector

	// Transfer applies the block's transfer function to the value
	// at its input side (entry for forward, exit for backward),
	// writing the result into out. in must not be modified.
	Transfer(n *cfg.Node, in, out *bitvec.Vector)
}

// GenKillProblem is a VectorProblem whose transfer function has the
// canonical gen/kill form
//
//	out = (in AND NOT kill) OR gen
//
// (Section 3's bit-vector equations all do). Problems that implement
// it let the solver fuse transfer and change test into a single
// word-parallel AndNotOrInto pass. The returned vectors are read-only
// to the solver and must stay valid until the next solve; they may be
// rebuilt between solves (the solver re-reads them each time).
type GenKillProblem interface {
	VectorProblem
	GenKill(n *cfg.Node) (gen, kill *bitvec.Vector)
}

// Result holds the fixpoint solution of a vector problem.
type Result struct {
	// In and Out are indexed by cfg.NodeID: In is the value at
	// block entry, Out at block exit, regardless of direction.
	In, Out []*bitvec.Vector

	// Touched, when non-nil, lists every node whose In or Out may
	// differ from the previous solve's solution; values at all other
	// nodes are bit-identical to before. It always includes the
	// dirty nodes of the Resolve that produced it. A nil Touched
	// means the solve gave no such guarantee (a full or cancelled
	// solve) and every node must be treated as changed. The slice
	// aliases solver scratch and is invalidated by the next solve.
	Touched []cfg.NodeID

	// Stats describes the solver run that produced this solution.
	Stats SolverStats
}

// SolverStats reports how much work the fixpoint iteration performed.
type SolverStats struct {
	// NodeVisits is the number of block transfer evaluations.
	NodeVisits int
	// Passes is the real convergence pass count: the priority
	// worklist drains in solve order, so every wraparound of its
	// scan cursor is one round-robin sweep.
	Passes int
	// MaxWorklistDepth is the high-water mark of pending worklist
	// entries.
	MaxWorklistDepth int
	// Seeded is the number of nodes placed on the initial worklist:
	// all nodes for a full solve, only the affected region for an
	// incremental one.
	Seeded int
	// Pushes is the number of worklist insertions: the seeds plus
	// every requeue caused by a changed solution value.
	Pushes int
	// VecOps counts the bulk bit-vector operations the solve
	// performed (meet folds, transfer evaluations, change tests,
	// result copies).
	VecOps int
	// Cancelled reports that the solve was interrupted by the
	// solver's cancellation check before reaching the fixpoint. A
	// cancelled solution is PARTIAL — not a fixpoint of anything —
	// and must not justify any transformation; the solver discards
	// it and re-solves in full on its next use.
	Cancelled bool
}

// Cost converts the stats of one completed solve into the record
// obs.SolverMetrics.RecordSolve accounts. seedable is the number of
// nodes the solve could have seeded — the graph's node count — against
// which Seeded measures incremental reuse.
func (st SolverStats) Cost(seedable int) obs.SolveCost {
	return obs.SolveCost{
		Visits:           st.NodeVisits,
		Pushes:           st.Pushes,
		Passes:           st.Passes,
		MaxWorklistDepth: st.MaxWorklistDepth,
		Seeded:           st.Seeded,
		Seedable:         seedable,
		VecOps:           st.VecOps,
		Cancelled:        st.Cancelled,
	}
}

// Solve computes the fixpoint of p on g with a worklist algorithm.
// Nodes drain in reverse postorder for forward problems and postorder
// for backward problems, which makes single-pass convergence typical
// for structured graphs while remaining correct on the irreducible
// ones the paper's Figure 5 exercises.
func Solve(g *cfg.Graph, p VectorProblem) *Result {
	return NewSolver(g, p).Full()
}

// Solver is a reusable worklist solver bound to one graph and one
// problem. It owns the solution storage (one bitvec.Rows slab per
// side) and the worklist scratch, so repeated solves — the driver's
// rounds — allocate nothing.
//
// The solver assumes the graph's node and edge structure stays fixed
// between solves; only block contents (the transfer functions) may
// change. The paper's driver satisfies this: critical edges are split
// once before the rounds, and synthetic-node cleanup happens after.
type Solver struct {
	g   *cfg.Graph
	p   VectorProblem
	gk  GenKillProblem // non-nil iff p has gen/kill form
	res Result

	top      *bitvec.Vector
	boundary *bitvec.Vector
	tmp      *bitvec.Vector

	// meet and xfer alias res.In and res.Out by direction: meet is the
	// side values arrive at (In forward, Out backward), xfer the side
	// the block transfer writes. bnode is the node whose meet side
	// holds the fixed boundary value (Start forward, End backward).
	meet, xfer []*bitvec.Vector
	bnode      *cfg.Node

	order   []*cfg.Node // solve order: RPO (forward) or PO (backward)
	pos     []int32     // NodeID -> position in order; -1 if absent
	forward bool

	wl       prioWorklist
	frontier []*cfg.Node  // scratch for Resolve's region BFS
	affected []bool       // scratch for Resolve's region marking
	touched  []cfg.NodeID // scratch backing Result.Touched
	solved   bool

	cancel  func() bool
	metrics *obs.SolverMetrics
}

// SetCancel installs a cancellation check consulted periodically while
// the solve runs (every cancelCheckStride visits — cheap enough for
// time-based watchdogs). When it returns true the solve stops early:
// the result is marked Cancelled, is not a fixpoint, and must be
// discarded; the solver re-solves in full on its next use.
func (s *Solver) SetCancel(cancel func() bool) { s.cancel = cancel }

// SetMetrics installs a telemetry sink that every subsequent solve
// reports into (visits, pushes, passes, seeding, vector ops).
// A nil sink — the default — keeps the solver silent.
func (s *Solver) SetMetrics(m *obs.SolverMetrics) { s.metrics = m }

// flush reports a completed solve to the metrics sink, if any.
func (s *Solver) flush(kind obs.SolveKind) {
	s.metrics.RecordSolve(kind, s.res.Stats.Cost(s.g.NumNodes()))
}

// cancelCheckStride is how many node visits pass between cancellation
// checks. Small enough that a watchdog fires promptly even on huge
// graphs, large enough to keep the check off the profile.
const cancelCheckStride = 64

// NewSolver creates a solver for p on g. No solving happens yet.
func NewSolver(g *cfg.Graph, p VectorProblem) *Solver {
	s := &Solver{g: g, p: p, forward: p.Direction() == Forward}
	s.gk, _ = p.(GenKillProblem)
	if s.forward {
		s.order = cfg.ReversePostorder(g)
	} else {
		s.order = cfg.Postorder(g)
	}
	n := g.NumNodes()
	s.res.In = bitvec.Rows(n, p.Bits())
	s.res.Out = bitvec.Rows(n, p.Bits())
	s.meet, s.xfer, s.bnode = s.res.In, s.res.Out, g.Start
	if !s.forward {
		s.meet, s.xfer, s.bnode = s.res.Out, s.res.In, g.End
	}
	s.top = p.Top()
	s.boundary = p.Boundary()
	s.tmp = bitvec.New(p.Bits())
	s.pos = make([]int32, n)
	for i := range s.pos {
		s.pos[i] = -1
	}
	for i, node := range s.order {
		s.pos[node.ID] = int32(i)
	}
	s.wl.init(len(s.order))
	s.affected = make([]bool, n)
	s.frontier = make([]*cfg.Node, 0, len(s.order))
	return s
}

// flow returns the nodes n's value is met from and the nodes whose
// value depends on n's: predecessors and successors for a forward
// problem, the reverse for a backward one.
func (s *Solver) flow(n *cfg.Node) (srcs, deps []*cfg.Node) {
	if s.forward {
		return n.Preds(), n.Succs()
	}
	return n.Succs(), n.Preds()
}

// Result returns the current solution. Valid after Full or Resolve.
func (s *Solver) Result() *Result { return &s.res }

// Full solves from scratch: every node re-initialized to top and
// seeded.
func (s *Solver) Full() *Result {
	s.res.Touched = nil
	for _, node := range s.g.Nodes() {
		s.res.In[node.ID].CopyFrom(s.top)
		s.res.Out[node.ID].CopyFrom(s.top)
	}
	s.applyBoundary()
	s.wl.clear()
	for i := range s.order {
		s.wl.push(i)
	}
	s.res.Stats = SolverStats{Seeded: len(s.order), Pushes: len(s.order)}
	s.run()
	s.solved = !s.res.Stats.Cancelled
	s.flush(obs.SolveFull)
	return &s.res
}

// Resolve re-solves after the blocks in dirty changed, reusing the
// previous solution everywhere the change cannot reach.
//
// The affected region is the set of nodes whose solution value can
// depend on a dirty block's content: for a backward problem the dirty
// blocks and everything that reaches them (transitive predecessors),
// for a forward problem the dirty blocks and everything they reach.
// Values outside the region form a closed subsystem whose equations
// did not change, so their old values are exactly the new greatest
// fixpoint there; inside the region values restart from top, which
// makes the descending iteration converge to the exact greatest
// fixpoint of the updated system — byte-identical to a full solve.
// Result.Touched lists the region: every node outside it kept its
// previous In and Out bit for bit.
//
// Resolve on an unsolved Solver falls back to Full. An empty dirty set
// returns the previous solution untouched.
func (s *Solver) Resolve(dirty []cfg.NodeID) *Result {
	if !s.solved {
		return s.Full()
	}
	if len(dirty) == 0 {
		s.res.Stats = SolverStats{}
		s.res.Touched = []cfg.NodeID{} // non-nil and empty: nothing moved
		if s.metrics != nil {
			s.metrics.RecordCacheHit()
		}
		return &s.res
	}

	// Mark the affected region by BFS against the flow direction of
	// dependence: backward problems depend on successors, so a dirty
	// node invalidates its transitive predecessors; forward dually.
	clear(s.affected)
	frontier := s.frontier[:0]
	touched := s.touched[:0]
	for _, id := range dirty {
		if !s.affected[id] {
			s.affected[id] = true
			touched = append(touched, id)
			frontier = append(frontier, s.g.Node(id))
		}
	}
	for len(frontier) > 0 {
		node := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		_, deps := s.flow(node)
		for _, d := range deps {
			if !s.affected[d.ID] {
				s.affected[d.ID] = true
				touched = append(touched, d.ID)
				frontier = append(frontier, d)
			}
		}
	}
	s.touched = touched

	// Re-initialize and seed only the affected region.
	s.wl.clear()
	seeded := 0
	for i, node := range s.order {
		if !s.affected[node.ID] {
			continue
		}
		s.res.In[node.ID].CopyFrom(s.top)
		s.res.Out[node.ID].CopyFrom(s.top)
		s.wl.push(i)
		seeded++
	}
	s.applyBoundary()
	s.res.Stats = SolverStats{Seeded: seeded, Pushes: seeded}
	s.run()
	// Values outside the affected region provably kept their old
	// bits; a cancelled run guarantees nothing.
	s.res.Touched = touched
	if s.res.Stats.Cancelled {
		s.solved = false
		s.res.Touched = nil
	}
	s.flush(obs.SolveIncremental)
	return &s.res
}

func (s *Solver) applyBoundary() {
	s.meet[s.bnode.ID].CopyFrom(s.boundary)
}

// run drains the priority worklist. Membership lives in a bitset over
// solve-order positions; the scan cursor pops the lowest pending
// position at or after itself, so nodes drain in reverse postorder
// (forward) or postorder (backward) and every cursor wraparound is one
// complete round-robin sweep — the Passes statistic counts exactly
// those sweeps.
func (s *Solver) run() {
	res := &s.res
	p := s.p
	meet, xfer := s.meet, s.xfer
	intersect := p.Meet() == Intersect

	vecOps, pushes, visits := 0, 0, 0
	passes := 0
	maxDepth := s.wl.size
	if s.wl.size > 0 {
		passes = 1
	}
	scan := 0

	meetInto := func(dst, src *bitvec.Vector) {
		vecOps++
		if intersect {
			dst.And(src)
		} else {
			dst.Or(src)
		}
	}
	pushDep := func(id cfg.NodeID) {
		if pp := s.pos[id]; pp >= 0 && s.wl.push(int(pp)) {
			pushes++
			if s.wl.size > maxDepth {
				maxDepth = s.wl.size
			}
		}
	}

	for s.wl.size > 0 {
		if s.cancel != nil && visits%cancelCheckStride == 0 && s.cancel() {
			// Abandon the solve: drop the pending worklist and
			// mark the result partial.
			s.wl.clear()
			res.Stats.Cancelled = true
			break
		}
		pos := s.wl.pop(scan)
		if pos < 0 {
			pos = s.wl.pop(0)
			passes++
		}
		scan = pos + 1
		node := s.order[pos]
		visits++
		faultinject.Fire(faultinject.SolverVisit, nil)

		// Meet the sources' transfer sides into the meet side (except
		// at the boundary node, whose meet side is fixed), apply the
		// block transfer, and requeue the dependents on a change.
		id := node.ID
		srcs, deps := s.flow(node)
		if node != s.bnode && len(srcs) > 0 {
			m := meet[id]
			m.CopyFrom(xfer[srcs[0].ID])
			vecOps++
			for _, src := range srcs[1:] {
				meetInto(m, xfer[src.ID])
			}
		}
		var changed bool
		if s.gk != nil {
			gen, kill := s.gk.GenKill(node)
			changed = xfer[id].AndNotOrInto(meet[id], kill, gen)
			vecOps++ // one fused transfer-and-change-test pass
		} else {
			p.Transfer(node, meet[id], s.tmp)
			vecOps += 2 // the transfer evaluation and the change test
			if changed = !s.tmp.Equal(xfer[id]); changed {
				xfer[id].CopyFrom(s.tmp)
				vecOps++
			}
		}
		if changed {
			for _, d := range deps {
				pushDep(d.ID)
			}
		}
	}
	res.Stats.NodeVisits += visits
	res.Stats.Pushes += pushes
	res.Stats.VecOps += vecOps
	res.Stats.Passes = passes
	res.Stats.MaxWorklistDepth = maxDepth
}

// prioWorklist is a bitset-backed priority queue over solve-order
// positions. push sets a bit; pop(from) clears and returns the lowest
// set position at or after from, or -1. Draining with a wrapping scan
// cursor yields round-robin sweeps in solve order.
type prioWorklist struct {
	words []uint64
	n     int // number of positions
	size  int // bits currently set
}

func (w *prioWorklist) init(n int) {
	w.n = n
	w.words = make([]uint64, (n+63)/64)
	w.size = 0
}

func (w *prioWorklist) clear() {
	for i := range w.words {
		w.words[i] = 0
	}
	w.size = 0
}

// push inserts pos; reports whether it was newly inserted.
func (w *prioWorklist) push(pos int) bool {
	idx, bit := pos>>6, uint64(1)<<(uint(pos)&63)
	if w.words[idx]&bit != 0 {
		return false
	}
	w.words[idx] |= bit
	w.size++
	return true
}

// pop removes and returns the lowest set position >= from, or -1.
func (w *prioWorklist) pop(from int) int {
	if from >= w.n {
		return -1
	}
	idx := from >> 6
	word := w.words[idx] &^ ((uint64(1) << (uint(from) & 63)) - 1)
	for {
		if word != 0 {
			bit := bits.TrailingZeros64(word)
			pos := idx<<6 + bit
			w.words[idx] &^= uint64(1) << uint(bit)
			w.size--
			return pos
		}
		idx++
		if idx >= len(w.words) {
			return -1
		}
		word = w.words[idx]
	}
}
