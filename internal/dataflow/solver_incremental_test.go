package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/parser"
	"pdce/internal/progen"
)

// mutProblem is an intersect problem whose transfer is driven by
// per-label kill/use rules the test mutates between solves — a stand-in
// for block contents changing under the incremental driver.
type mutProblem struct {
	dir  Direction
	bits int
	set  map[string]uint // labels whose transfer sets these bits
	clr  map[string]uint // labels whose transfer clears these bits
}

func (p *mutProblem) Bits() int            { return p.bits }
func (p *mutProblem) Direction() Direction { return p.dir }
func (p *mutProblem) Meet() Meet           { return Intersect }
func (p *mutProblem) Boundary() *bitvec.Vector {
	return bitvec.NewAllOnes(p.bits)
}
func (p *mutProblem) Top() *bitvec.Vector { return bitvec.NewAllOnes(p.bits) }
func (p *mutProblem) Transfer(n *cfg.Node, src, dst *bitvec.Vector) {
	dst.CopyFrom(src)
	for b := 0; b < p.bits; b++ {
		if p.set[n.Label]&(1<<b) != 0 {
			dst.Set(b)
		}
		if p.clr[n.Label]&(1<<b) != 0 {
			dst.Clear(b)
		}
	}
}

func incrementalTestGraph(t *testing.T) *cfg.Graph {
	t.Helper()
	// Diamond into a loop into a second diamond — joins, a cycle,
	// and a straight tail.
	return parser.MustParseCFG(`
node a {}
node b {}
node c {}
node d {}
node l1 {}
node l2 {}
node f {}
node g1 {}
node g2 {}
node h {}
edge s a
edge a b
edge a c
edge b d
edge c d
edge d l1
edge l1 l2
edge l2 l1
edge l2 f
edge f g1
edge f g2
edge g1 h
edge g2 h
edge h e
`)
}

// requireSameSolution compares two results over all nodes.
func requireSameSolution(t *testing.T, g *cfg.Graph, got, want *Result, ctx string) {
	t.Helper()
	for _, n := range g.Nodes() {
		if !got.In[n.ID].Equal(want.In[n.ID]) {
			t.Fatalf("%s: In[%s] = %s, want %s", ctx, n.Label, got.In[n.ID], want.In[n.ID])
		}
		if !got.Out[n.ID].Equal(want.Out[n.ID]) {
			t.Fatalf("%s: Out[%s] = %s, want %s", ctx, n.Label, got.Out[n.ID], want.Out[n.ID])
		}
	}
}

// snapshotSolution copies a solution's In/Out vectors, so that the
// nodes a later solve moved can be told apart from the ones it kept.
func snapshotSolution(g *cfg.Graph, r *Result) (in, out []*bitvec.Vector) {
	in = make([]*bitvec.Vector, g.NumNodes())
	out = make([]*bitvec.Vector, g.NumNodes())
	for _, n := range g.Nodes() {
		in[n.ID] = r.In[n.ID].Copy()
		out[n.ID] = r.Out[n.ID].Copy()
	}
	return in, out
}

// requireTouchedCovers checks the Result.Touched contract of an
// incremental Resolve, which callers rely on to skip every node outside
// it: the set is present, lists every dirty node, and lists every node
// whose In or Out differs from the pre-solve snapshot. It returns how
// many nodes outside the dirty set moved, so callers can check that
// the mutations really exercised the second half of the contract.
func requireTouchedCovers(t *testing.T, g *cfg.Graph, got *Result, beforeIn, beforeOut []*bitvec.Vector, dirty []cfg.NodeID, ctx string) int {
	t.Helper()
	if got.Touched == nil {
		t.Fatalf("%s: incremental Resolve gave no Touched guarantee", ctx)
	}
	listed := make(map[cfg.NodeID]bool, len(got.Touched))
	for _, id := range got.Touched {
		listed[id] = true
	}
	isDirty := make(map[cfg.NodeID]bool, len(dirty))
	for _, id := range dirty {
		isDirty[id] = true
		if !listed[id] {
			t.Fatalf("%s: dirty node %s missing from Touched %v", ctx, g.Node(id).Label, got.Touched)
		}
	}
	movedElsewhere := 0
	for _, n := range g.Nodes() {
		if got.In[n.ID].Equal(beforeIn[n.ID]) && got.Out[n.ID].Equal(beforeOut[n.ID]) {
			continue
		}
		if !listed[n.ID] {
			t.Fatalf("%s: value of %s moved but it is missing from Touched %v", ctx, n.Label, got.Touched)
		}
		if !isDirty[n.ID] {
			movedElsewhere++
		}
	}
	return movedElsewhere
}

// TestResolveMatchesFullSolve mutates every node's transfer rules in
// turn and checks that re-seeding only the dirty node's affected region
// reproduces the from-scratch greatest fixpoint exactly, in both
// directions, and that Result.Touched covers every dirty node and
// every node whose value moved.
func TestResolveMatchesFullSolve(t *testing.T) {
	for _, dir := range []Direction{Backward, Forward} {
		name := "backward"
		if dir == Forward {
			name = "forward"
		}
		t.Run(name, func(t *testing.T) {
			g := incrementalTestGraph(t)
			prob := &mutProblem{
				dir:  dir,
				bits: 4,
				set:  map[string]uint{"b": 0b0001, "l1": 0b0100},
				clr:  map[string]uint{"d": 0b0010, "g2": 0b1000},
			}
			inc := NewSolver(g, prob)
			inc.Full()
			movedElsewhere := 0

			mutations := []struct {
				label    string
				set, clr uint
			}{
				{"c", 0b1000, 0},
				{"l2", 0, 0b0101},
				{"a", 0b0010, 0},
				{"h", 0, 0b0001},
				{"l1", 0, 0}, // revert l1 to identity
				{"g1", 0b0110, 0b1000},
			}
			for _, m := range mutations {
				prob.set[m.label] = m.set
				prob.clr[m.label] = m.clr
				var dirty []cfg.NodeID
				n, ok := g.NodeByLabel(m.label)
				if !ok {
					t.Fatalf("no node %q", m.label)
				}
				dirty = append(dirty, n.ID)

				ctx := fmt.Sprintf("after mutating %s", m.label)
				beforeIn, beforeOut := snapshotSolution(g, inc.Result())
				got := inc.Resolve(dirty)
				want := Solve(g, prob)
				requireSameSolution(t, g, got, want, ctx)
				movedElsewhere += requireTouchedCovers(t, g, got, beforeIn, beforeOut, dirty, ctx)
			}
			if movedElsewhere == 0 {
				t.Error("no mutation moved a value outside its dirty node; the Touched check is vacuous")
			}
		})
	}
}

// TestResolveEmptyDirtyIsCached checks that a resolve with no dirty
// nodes returns the prior solution without visiting anything.
func TestResolveEmptyDirtyIsCached(t *testing.T) {
	g := incrementalTestGraph(t)
	prob := &mutProblem{dir: Backward, bits: 3, set: map[string]uint{"d": 1}, clr: map[string]uint{"f": 2}}
	s := NewSolver(g, prob)
	full := s.Full()
	visits := full.Stats.NodeVisits

	again := s.Resolve(nil)
	if again.Stats.NodeVisits != 0 || again.Stats.Seeded != 0 {
		t.Errorf("empty resolve did work: %+v", again.Stats)
	}
	if again.Touched == nil || len(again.Touched) != 0 {
		t.Errorf("empty resolve Touched = %v, want empty and non-nil", again.Touched)
	}
	want := Solve(g, prob)
	requireSameSolution(t, g, again, want, "cached resolve")
	if visits == 0 {
		t.Error("full solve reported no node visits")
	}
}

// TestResolveOnUnsolvedFallsBackToFull checks the first Resolve call
// solves in full even when handed a partial dirty set.
func TestResolveOnUnsolvedFallsBackToFull(t *testing.T) {
	g := incrementalTestGraph(t)
	prob := &mutProblem{dir: Forward, bits: 2, set: map[string]uint{"b": 1}, clr: map[string]uint{"l2": 2}}
	s := NewSolver(g, prob)
	n, _ := g.NodeByLabel("h")
	got := s.Resolve([]cfg.NodeID{n.ID})
	want := Solve(g, prob)
	requireSameSolution(t, g, got, want, "first resolve")
}

// TestResolveRepeatedMutationsConverge hammers one solver with a long
// mutation sequence touching several nodes per step, comparing against
// fresh solves throughout — the access pattern of the driver's rounds.
func TestResolveRepeatedMutationsConverge(t *testing.T) {
	g := incrementalTestGraph(t)
	labels := []string{"a", "b", "c", "d", "l1", "l2", "f", "g1", "g2", "h"}
	prob := &mutProblem{dir: Backward, bits: 6, set: map[string]uint{}, clr: map[string]uint{}}
	s := NewSolver(g, prob)
	s.Full()

	rng := uint64(1)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for step := 0; step < 60; step++ {
		k := 1 + int(next(3))
		var dirty []cfg.NodeID
		for i := 0; i < k; i++ {
			label := labels[next(uint64(len(labels)))]
			prob.set[label] = uint(next(64))
			prob.clr[label] = uint(next(64)) &^ prob.set[label]
			n, _ := g.NodeByLabel(label)
			dirty = append(dirty, n.ID)
		}
		ctx := fmt.Sprintf("step %d", step)
		beforeIn, beforeOut := snapshotSolution(g, s.Result())
		got := s.Resolve(dirty)
		want := Solve(g, prob)
		requireSameSolution(t, g, got, want, ctx)
		requireTouchedCovers(t, g, got, beforeIn, beforeOut, dirty, ctx)
	}
}

// TestCancellationDiscards interrupts a full solve and then an
// incremental one in the middle of their worklist runs. Each cancelled
// solve must be marked partial, give no Touched guarantee, and never
// serve as a reuse baseline: the next solve runs in full and lands on
// the exact fixpoint.
func TestCancellationDiscards(t *testing.T) {
	g := progen.Generate(progen.Params{Seed: 3, Stmts: 240})
	rng := rand.New(rand.NewSource(3))
	p := randomGK(g, rng, Forward, 128, 0.1, 0.2)
	fullVisits := Solve(g, p).Stats.NodeVisits
	if fullVisits <= cancelCheckStride {
		t.Fatalf("a full solve takes %d visits; too few to cancel mid-solve", fullVisits)
	}

	// An armed hook fires on its second check, cancelCheckStride
	// visits into the solve.
	checks, armed := 0, false
	s := NewSolver(g, p)
	s.SetCancel(func() bool {
		checks++
		return armed && checks >= 2
	})
	arm := func() { checks, armed = 0, true }

	arm()
	res := s.Full()
	if !res.Stats.Cancelled {
		t.Fatal("cancel hook ignored by a full solve")
	}
	if v := res.Stats.NodeVisits; v == 0 || v >= fullVisits {
		t.Fatalf("cancelled full solve made %d of %d visits; not mid-solve", v, fullVisits)
	}
	if res.Touched != nil {
		t.Error("cancelled full solve claims a Touched guarantee")
	}
	armed = false
	res = s.Resolve(nil)
	if res.Stats.Cancelled || res.Touched != nil {
		t.Fatalf("re-solve after a cancelled full solve reused it (cancelled=%v, touched=%v)", res.Stats.Cancelled, res.Touched)
	}
	requireSameSolution(t, g, res, Solve(g, p), "after cancelled full solve")

	// Dirtying the start block puts the whole graph in the affected
	// region of a forward problem.
	start := g.Start.ID
	p.gen[start].Set(5)
	p.gen[start].Set(77)
	arm()
	res = s.Resolve([]cfg.NodeID{start})
	if !res.Stats.Cancelled {
		t.Fatal("cancel hook ignored by an incremental solve")
	}
	if res.Touched != nil {
		t.Error("cancelled incremental solve claims a Touched guarantee")
	}
	armed = false
	end := g.End.ID
	p.kill[end].Set(9)
	res = s.Resolve([]cfg.NodeID{end})
	if res.Stats.Cancelled || res.Touched != nil {
		t.Fatalf("re-solve after a cancelled incremental solve reused it (cancelled=%v, touched=%v)", res.Stats.Cancelled, res.Touched)
	}
	requireSameSolution(t, g, res, Solve(g, p), "after cancelled incremental solve")
}
