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
// a known set of blocks changed. Resolve raises the previous solution
// only by the bits the changed blocks can newly produce, carried along
// the flow past the blocks that kill them and the blocks that hold them
// already, and descends from there to the new greatest fixpoint. It reports the nodes it visited
// (Result.Touched), so callers can confine their own follow-up work to
// them.
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

	// Touched, when non-nil, lists the nodes the Resolve that
	// produced it seeded or re-queued: every dirty node and every node
	// whose In or Out may differ from the previous solve's solution;
	// values at all other nodes are bit-identical to before. A nil
	// Touched means the solve gave no such guarantee (a full or
	// cancelled solve) and every node must be treated as changed. The
	// slice aliases solver scratch and is invalidated by the next
	// solve.
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
	// all nodes for a full solve; for an incremental one the dirty
	// nodes, the raised ones and their dependents.
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

// Solve computes the fixpoint of p on g with a worklist algorithm.
// Nodes drain in reverse postorder for forward problems and postorder
// for backward problems, which makes single-pass convergence typical
// for structured graphs while remaining correct on the irreducible
// ones the paper's Figure 5 exercises.
func Solve(g *cfg.Graph, p VectorProblem) *Result {
	return NewSolver(g, p).Full()
}

// Solver is a reusable worklist solver bound to one graph and one
// problem. It holds the solution storage (one bitvec.Rows slab per
// side, or rows its creator supplies) and the worklist scratch, so
// repeated solves — the driver's rounds — allocate nothing.
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

	wl      prioWorklist
	mark    []bool       // Resolve's scratch: nodes listed in touched
	touched []cfg.NodeID // scratch backing Result.Touched
	solved  bool

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
// adds its SolverStats to. A nil sink — the default — keeps the solver
// silent.
func (s *Solver) SetMetrics(m *obs.SolverMetrics) { s.metrics = m }

// flush adds the solve that just ran to the metrics sink, if any, as a
// full or an incremental one. Its seedable nodes, against which Seeded
// measures reuse, are the graph's nodes.
func (s *Solver) flush(incremental bool) {
	m := s.metrics
	if m == nil {
		return
	}
	m.Solves.Add(1)
	if incremental {
		m.IncrementalSolves.Add(1)
	} else {
		m.FullSolves.Add(1)
	}
	st := &s.res.Stats
	if st.Cancelled {
		m.CancelledSolves.Add(1)
	}
	m.NodeVisits.Add(int64(st.NodeVisits))
	m.WorklistPushes.Add(int64(st.Pushes))
	m.Passes.Add(int64(st.Passes))
	m.MaxWorklistDepth.Max(int64(st.MaxWorklistDepth))
	m.SeededNodes.Add(int64(st.Seeded))
	m.SeedableNodes.Add(int64(s.g.NumNodes()))
	m.VectorOps.Add(int64(st.VecOps))
}

// cancelCheckStride is how many node visits pass between cancellation
// checks. Small enough that a watchdog fires promptly even on huge
// graphs, large enough to keep the check off the profile.
const cancelCheckStride = 64

// NewSolver creates a solver for p on g. No solving happens yet.
func NewSolver(g *cfg.Graph, p VectorProblem) *Solver {
	n := g.NumNodes()
	return NewSolverOn(g, p, bitvec.Rows(n, p.Bits()), bitvec.Rows(n, p.Bits()))
}

// NewSolverOn is NewSolver over caller-supplied solution storage: in
// and out hold one p.Bits()-bit row per node of g. No row is read
// before Full overwrites it with top, so the rows may come dirty from a
// reused bitvec.Slab.
func NewSolverOn(g *cfg.Graph, p VectorProblem, in, out []*bitvec.Vector) *Solver {
	s := &Solver{g: g, p: p, forward: p.Direction() == Forward}
	s.gk, _ = p.(GenKillProblem)
	if s.forward {
		s.order = cfg.ReversePostorder(g)
	} else {
		s.order = cfg.Postorder(g)
	}
	n := g.NumNodes()
	s.res.In, s.res.Out = in, out
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
	s.mark = make([]bool, n)
	s.touched = make([]cfg.NodeID, 0, n)
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
	s.run(false)
	s.solved = !s.res.Stats.Cancelled
	s.flush(false)
	return &s.res
}

// Update brings dirty block n's transfer function up to date, where
// its caller has not already done so, and writes into rise (overwriting
// it) the block's rise mask: the bits its new transfer can produce that
// its old one could not. For a gen/kill problem that is
//
//	rise(n) = (gen′(n) ∖ gen(n)) ∪ (kill(n) ∖ kill′(n))
//
// A superset of the mask is exact too, only slower; a subset is not.
type Update func(n *cfg.Node, rise *bitvec.Vector)

// Resolve re-solves after the blocks in dirty changed. It starts from
// the previous greatest fixpoint S, raised only where the edits can
// raise it.
//
// update, when non-nil, is called once per dirty block before anything
// is read (see Update). From the rise masks Resolve computes P, the
// least solution of
//
//	P(n) = (rise(n) ∪ (⋃_{m ∈ src(n)} P(m) ∖ kill′(n))) ∖ S(n)
//
// on the transfer side: the raised bits carried along the flow through
// every block that does not kill them, as far as S lacks them. It ORs
// P into S and seeds the dirty blocks, the raised blocks and their
// dependents into the descending worklist run. S ∪ P satisfies every
// new equation from above, and every solution T of the new system lies
// below it: S ∪ (T ∖ P) solves the old system from below, so T ∖ P lies
// within S. Each bit column is its own system, so the run ends exactly
// on the new greatest fixpoint, bit for bit the solution Full computes.
// A problem without gen/kill form, or a nil update, raises every bit
// and kills none: the dirty blocks and everything that depends on them
// restart from top.
//
// Result.Touched lists the nodes the run seeded or re-queued: every
// other node was never visited and kept its previous In and Out bit for
// bit.
//
// Resolve on an unsolved Solver falls back to Full. An empty dirty set
// returns the previous solution untouched.
func (s *Solver) Resolve(dirty []cfg.NodeID, update Update) *Result {
	if !s.solved {
		if update != nil {
			for _, id := range dirty {
				update(s.g.Node(id), s.tmp)
			}
		}
		return s.Full()
	}
	if len(dirty) == 0 {
		s.res.Stats = SolverStats{}
		s.res.Touched = []cfg.NodeID{} // non-nil and empty: nothing moved
		if m := s.metrics; m != nil {
			// Answered from the previous solution: no work, and no
			// seedable node to count against reuse.
			m.Solves.Add(1)
			m.CacheHits.Add(1)
		}
		return &s.res
	}

	s.res.Stats = SolverStats{}
	s.raise(dirty, update)
	for _, id := range s.touched {
		if s.enqueue(id) {
			s.res.Stats.Seeded++
		}
	}
	s.res.Stats.Pushes = s.res.Stats.Seeded
	s.run(true)
	s.res.Touched = s.touched
	if s.res.Stats.Cancelled {
		// A cancelled run guarantees nothing.
		s.solved = false
		s.res.Touched = nil
	}
	s.flush(true)
	return &s.res
}

// raise ORs P (see Resolve) into the transfer side of the previous
// solution and lists in s.touched the nodes the run must seed: the
// dirty ones and every dependent of a raised one. A listed node's meet
// side collects the raised bits that reach it until the run, which
// seeds it and meets its sources before reading it. A node the run
// never meets into (the boundary node) receives none, so its rise is
// lifted from s.tmp at once, after every other dirty node holds its
// mask.
func (s *Solver) raise(dirty []cfg.NodeID, update Update) {
	clear(s.mark)
	s.touched = s.touched[:0]
	masked := update != nil && s.gk != nil
	rise := func(n *cfg.Node, dst *bitvec.Vector) {
		if update != nil {
			update(n, dst)
		}
		if !masked {
			dst.SetAll()
		}
		s.res.Stats.VecOps++
	}
	for _, id := range dirty {
		if n := s.g.Node(id); !s.mark[id] && s.hasMeet(n) {
			s.list(id)
			rise(n, s.meet[id])
			s.enqueue(id)
		}
	}
	for _, id := range dirty {
		if n := s.g.Node(id); !s.mark[id] {
			s.list(id)
			rise(n, s.tmp)
			s.lift(n, s.tmp, masked)
		}
	}
	for scan := 0; s.wl.size > 0; {
		pos := s.wl.pop(scan)
		if pos < 0 {
			pos = s.wl.pop(0)
		}
		scan = pos + 1
		n := s.order[pos]
		s.lift(n, s.meet[n.ID], masked)
	}
}

// lift ORs p, the raised bits that reached node n, into n's transfer
// side and carries the ones it lacked into its dependents' meet sides,
// past the bits each one kills, queueing every dependent that grew. An
// unmasked raise carries all of p, which is all ones, and kills none:
// a transfer without gen/kill form can turn one raised bit into
// another, so a bit n holds already must still flow on.
func (s *Solver) lift(n *cfg.Node, p *bitvec.Vector, masked bool) {
	st := &s.res.Stats
	x := s.xfer[n.ID]
	if masked {
		s.tmp.AndNotInto(p, x)
		p = s.tmp
		st.VecOps++
	}
	st.VecOps++
	if p.IsZero() {
		return
	}
	x.Or(p)
	st.VecOps++
	_, deps := s.flow(n)
	for _, d := range deps {
		if !s.hasMeet(d) {
			continue
		}
		m := s.meet[d.ID]
		if !s.mark[d.ID] {
			s.list(d.ID)
			m.ClearAll()
			st.VecOps++
		}
		var grew bool
		if masked {
			_, kill := s.gk.GenKill(d)
			grew = m.OrAndNot(p, kill)
		} else {
			grew = m.Or(p)
		}
		st.VecOps++
		if grew {
			s.enqueue(d.ID)
		}
	}
}

// hasMeet reports whether run meets n's sources into its meet side:
// n is in the solve order, has sources, and is not the boundary node,
// whose meet side is fixed.
func (s *Solver) hasMeet(n *cfg.Node) bool {
	srcs, _ := s.flow(n)
	return s.pos[n.ID] >= 0 && n != s.bnode && len(srcs) > 0
}

// list adds id to the nodes an incremental solve reports as touched.
func (s *Solver) list(id cfg.NodeID) {
	s.mark[id] = true
	s.touched = append(s.touched, id)
}

// enqueue puts id on the worklist and reports whether it was not there
// already. A node outside the solve order is never queued.
func (s *Solver) enqueue(id cfg.NodeID) bool {
	pp := s.pos[id]
	return pp >= 0 && s.wl.push(int(pp))
}

func (s *Solver) applyBoundary() {
	s.meet[s.bnode.ID].CopyFrom(s.boundary)
}

// run drains the priority worklist. Membership lives in a bitset over
// solve-order positions; the scan cursor pops the lowest pending
// position at or after itself, so nodes drain in reverse postorder
// (forward) or postorder (backward) and every cursor wraparound is one
// complete round-robin sweep — the Passes statistic counts exactly
// those sweeps. track lists every re-queued node in s.touched.
func (s *Solver) run(track bool) {
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
		if s.enqueue(id) {
			pushes++
			if s.wl.size > maxDepth {
				maxDepth = s.wl.size
			}
			if track && !s.mark[id] {
				s.list(id)
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
