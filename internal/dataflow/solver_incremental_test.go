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

// gkRise snapshots p's gen and kill rows at the given blocks and
// returns an Update writing each block's rise mask against that
// snapshot. Take it before editing the blocks.
func gkRise(p *gkProblem, dirty []cfg.NodeID) Update {
	oldGen := map[cfg.NodeID]*bitvec.Vector{}
	oldKill := map[cfg.NodeID]*bitvec.Vector{}
	for _, id := range dirty {
		oldGen[id], oldKill[id] = p.gen[id].Copy(), p.kill[id].Copy()
	}
	return func(n *cfg.Node, rise *bitvec.Vector) {
		rise.AndNotInto(oldKill[n.ID], p.kill[n.ID])
		rise.OrAndNot(p.gen[n.ID], oldGen[n.ID])
	}
}

// flip toggles bit b of v.
func flip(v *bitvec.Vector, b int) {
	if v.Get(b) {
		v.Clear(b)
	} else {
		v.Set(b)
	}
}

// checkResolve re-solves s after its dirty blocks changed and checks
// the result against a Full solve of p, bit for bit, and against the
// Touched contract. It returns the Touched set.
func checkResolve(t *testing.T, g *cfg.Graph, s *Solver, p VectorProblem, dirty []cfg.NodeID, update Update, ctx string) []cfg.NodeID {
	t.Helper()
	beforeIn, beforeOut := snapshotSolution(g, s.Result())
	got := s.Resolve(dirty, update)
	requireSameSolution(t, g, got, Solve(g, p), ctx)
	requireTouchedCovers(t, g, got, beforeIn, beforeOut, dirty, ctx)
	return got.Touched
}

// spared counts the nodes a region restart would have re-solved — the
// dirty nodes and everything whose value depends on them — that are
// not dirty and that the raise left unvisited (outside touched).
func spared(g *cfg.Graph, dir Direction, dirty, touched []cfg.NodeID) int {
	in := make([]bool, g.NumNodes())
	for _, id := range touched {
		in[id] = true
	}
	region := make([]bool, g.NumNodes())
	stack := append([]cfg.NodeID(nil), dirty...)
	for _, id := range dirty {
		region[id] = true
		in[id] = true // a dirty node is not a spared one
	}
	n := 0
	for len(stack) > 0 {
		node := g.Node(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		deps := node.Succs()
		if dir == Backward {
			deps = node.Preds()
		}
		for _, d := range deps {
			if !region[d.ID] {
				region[d.ID] = true
				stack = append(stack, d.ID)
				if !in[d.ID] {
					n++
				}
			}
		}
	}
	return n
}

// resolveGKSteps edits a random gen/kill problem on g steps times, at
// up to maxDirty random blocks per step (the first step also at the
// start and end blocks). Each edited block flips a few random bits of
// gen and of kill, raising and lowering both. Every Resolve is checked
// by checkResolve. It returns the total count of spared nodes: the
// reuse the raise adds over restarting the dirty blocks' region.
func resolveGKSteps(t *testing.T, g *cfg.Graph, dir Direction, seed int64, steps, maxDirty int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := randomGK(g, rng, dir, 96, 0.1, 0.2)
	s := NewSolver(g, p)
	s.Full()
	nodes := g.Nodes()
	total := 0
	for step := 0; step < steps; step++ {
		var dirty []cfg.NodeID
		if step == 0 {
			dirty = append(dirty, g.Start.ID, g.End.ID)
		}
		for k := 1 + rng.Intn(maxDirty); k > 0; k-- {
			dirty = append(dirty, nodes[rng.Intn(len(nodes))].ID)
		}
		update := gkRise(p, dirty)
		for _, id := range dirty {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				flip(p.gen[id], rng.Intn(p.bits))
				flip(p.kill[id], rng.Intn(p.bits))
			}
		}
		ctx := fmt.Sprintf("%s step %d (dirty %v)", g.Name, step, dirty)
		touched := checkResolve(t, g, s, p, dirty, update, ctx)
		total += spared(g, dir, dirty, touched)
	}
	return total
}

// FuzzResolve checks Resolve against Full on problems and edit
// sequences the input picks. Its first five bytes pick a small progen
// graph (seed, size, shape), the direction, the width and the density
// of the gen/kill rows. The rest is a sequence of steps: a header byte
// (its low two bits are the step's edit count less one, its next bit
// passes no update, so every bit is raised), then three bytes per edit
// (block, bit, and whether to flip the gen or the kill bit). Every
// Resolve must equal a Full solve bit for bit and keep the Touched
// contract.
func FuzzResolve(f *testing.F) {
	f.Add([]byte{1, 40, 0, 1, 64, 0, 3, 0, 1, 5, 2, 7, 0})
	f.Add([]byte{7, 90, 1, 0, 130, 3, 1, 4, 9, 1, 12, 3, 0, 4, 2, 7, 0, 3, 33, 1})
	f.Add([]byte{3, 20, 1, 1, 1, 7, 0, 0, 0, 0, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		params := progen.Params{Seed: int64(data[0]), Stmts: 5 + int(data[1])%80, Irreducible: data[2]&1 == 1}
		dir := Direction(data[3] & 1)
		bits := 1 + int(data[4])%150
		g := progen.Generate(params)
		rng := rand.New(rand.NewSource(int64(data[4])))
		density := float64(data[3]>>1&7) / 8
		p := randomGK(g, rng, dir, bits, density, density)
		s := NewSolver(g, p)
		s.Full()
		nodes := g.Nodes()
		data = data[5:]
		for step := 0; len(data) > 0 && step < 32; step++ {
			head := data[0]
			data = data[1:]
			var dirty []cfg.NodeID
			var edits [][3]byte
			for k := int(head&3) + 1; k > 0 && len(data) >= 3; k-- {
				edits = append(edits, [3]byte{data[0], data[1], data[2]})
				dirty = append(dirty, nodes[int(data[0])%len(nodes)].ID)
				data = data[3:]
			}
			update := gkRise(p, dirty)
			if head&4 != 0 {
				update = nil
			}
			for i, e := range edits {
				row := p.gen[dirty[i]]
				if e[2]&1 == 1 {
					row = p.kill[dirty[i]]
				}
				flip(row, int(e[1])%bits)
			}
			checkResolve(t, g, s, p, dirty, update, fmt.Sprintf("%s %s step %d (dirty %v)", g.Name, dirName(dir), step, dirty))
		}
	})
}

func dirName(dir Direction) string {
	if dir == Forward {
		return "forward"
	}
	return "backward"
}

// gkShapes are the progen graph shapes the gen/kill re-solve tests run
// on: structured (reducible) and with cross edges (irreducible).
var gkShapes = []struct {
	name        string
	irreducible bool
}{{"structured", false}, {"irreducible", true}}

// TestResolveMatchesFullSolve mutates every node's transfer rules in
// turn and checks that re-solving from the previous solution
// reproduces the from-scratch greatest fixpoint exactly, in both
// directions, and that Result.Touched covers every dirty node and
// every node whose value moved: first for a problem without gen/kill
// form (every bit raised), then for gen/kill problems whose edits
// raise and lower gen and kill at several blocks per step, on
// reducible and irreducible graphs. There the raise must also leave
// some node of the dirty blocks' region unvisited.
func TestResolveMatchesFullSolve(t *testing.T) {
	for _, dir := range []Direction{Backward, Forward} {
		for _, shape := range gkShapes {
			t.Run("gen-kill/"+dirName(dir)+"/"+shape.name, func(t *testing.T) {
				g := progen.Generate(progen.Params{Seed: 5, Stmts: 150, Irreducible: shape.irreducible})
				n := resolveGKSteps(t, g, dir, 5, 12, 4)
				t.Logf("%d nodes, %d spared over 12 re-solves", g.NumNodes(), n)
				if n == 0 {
					t.Error("every re-solve visited the whole region of its dirty blocks; the raise reused nothing")
				}
			})
		}
	}
	for _, dir := range []Direction{Backward, Forward} {
		t.Run(dirName(dir), func(t *testing.T) {
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
				got := inc.Resolve(dirty, nil)
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

	again := s.Resolve(nil, nil)
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
	got := s.Resolve([]cfg.NodeID{n.ID}, nil)
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
		got := s.Resolve(dirty, nil)
		want := Solve(g, prob)
		requireSameSolution(t, g, got, want, ctx)
		requireTouchedCovers(t, g, got, beforeIn, beforeOut, dirty, ctx)
	}

	// The same access pattern on gen/kill problems, where each
	// re-solve raises only the dirty blocks' rise masks.
	for _, dir := range []Direction{Backward, Forward} {
		for i, shape := range gkShapes {
			g := progen.Generate(progen.Params{Seed: int64(20 + i), Stmts: 200, Irreducible: shape.irreducible})
			resolveGKSteps(t, g, dir, int64(20+i), 60, 6)
		}
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
	res = s.Resolve(nil, nil)
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
	res = s.Resolve([]cfg.NodeID{start}, nil)
	if !res.Stats.Cancelled {
		t.Fatal("cancel hook ignored by an incremental solve")
	}
	if res.Touched != nil {
		t.Error("cancelled incremental solve claims a Touched guarantee")
	}
	armed = false
	end := g.End.ID
	p.kill[end].Set(9)
	res = s.Resolve([]cfg.NodeID{end}, nil)
	if res.Stats.Cancelled || res.Touched != nil {
		t.Fatalf("re-solve after a cancelled incremental solve reused it (cancelled=%v, touched=%v)", res.Stats.Cancelled, res.Touched)
	}
	requireSameSolution(t, g, res, Solve(g, p), "after cancelled incremental solve")
}
