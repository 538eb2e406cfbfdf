package obs_test

import (
	"math/rand"
	"sync"
	"testing"

	"pdce/internal/analysis"
	"pdce/internal/bitvec"
	"pdce/internal/cfg"
	"pdce/internal/dataflow"
	"pdce/internal/obs"
	"pdce/internal/progen"
)

// genKill is a forward intersect problem in gen/kill form over random
// rows: enough of a problem to give a dataflow.Solver work to count.
type genKill struct{ gen, kill []*bitvec.Vector }

const gkBits = 64

func (p *genKill) Bits() int                     { return gkBits }
func (p *genKill) Direction() dataflow.Direction { return dataflow.Forward }
func (p *genKill) Meet() dataflow.Meet           { return dataflow.Intersect }
func (p *genKill) Boundary() *bitvec.Vector      { return bitvec.New(gkBits) }
func (p *genKill) Top() *bitvec.Vector           { return bitvec.NewAllOnes(gkBits) }
func (p *genKill) Transfer(n *cfg.Node, in, out *bitvec.Vector) {
	out.AndNotOrInto(in, p.kill[n.ID], p.gen[n.ID])
}
func (p *genKill) GenKill(n *cfg.Node) (gen, kill *bitvec.Vector) {
	return p.gen[n.ID], p.kill[n.ID]
}

// newGenKill returns a progen graph with loops and a genKill problem
// on it, both fixed by seed.
func newGenKill(seed int64) (*cfg.Graph, *genKill) {
	g := progen.Generate(progen.Params{Seed: seed, Stmts: 200, LoopProb: 0.2, BranchProb: 0.3})
	rng := rand.New(rand.NewSource(seed))
	p := &genKill{gen: bitvec.Rows(g.NumNodes(), gkBits), kill: bitvec.Rows(g.NumNodes(), gkBits)}
	for id := range p.gen {
		for b := 0; b < gkBits; b++ {
			if rng.Intn(8) == 0 {
				p.gen[id].Set(b)
			}
			if rng.Intn(8) == 0 {
				p.kill[id].Set(b)
			}
		}
	}
	return g, p
}

// solveThrice runs a full solve, a re-solve after the block before End
// changed, and a re-solve with nothing dirty on s, returning the first
// two solves' stats.
func solveThrice(g *cfg.Graph, p *genKill, s *dataflow.Solver) (full, inc dataflow.SolverStats) {
	full = s.Full().Stats
	last := g.End.Preds()[0]
	p.gen[last.ID].ClearAll()
	inc = s.Resolve([]cfg.NodeID{last.ID}, nil).Stats
	s.Resolve(nil, nil)
	return full, inc
}

// TestSolverMetricsAccounting: a dataflow.Solver adds each solve to its
// sink: the full/incremental/cache-hit split, every work counter summed
// over the solves that ran, the deepest worklist, and the seeding the
// reuse rate is computed from (a cache hit seeds nothing it could
// have). A solver given a nil collector's sink solves the same and
// collects nothing.
func TestSolverMetricsAccounting(t *testing.T) {
	g, p := newGenKill(1)
	var m obs.SolverMetrics
	s := dataflow.NewSolver(g, p)
	s.SetMetrics(&m)
	full, inc := solveThrice(g, p, s)

	snap := m.Snapshot()
	if snap.Solves != 3 || snap.FullSolves != 1 || snap.IncrementalSolves != 1 || snap.CacheHits != 1 || snap.CancelledSolves != 0 {
		t.Errorf("solve split wrong: %+v", snap)
	}
	sum := func(f func(dataflow.SolverStats) int) obs.Count { return obs.Count(f(full) + f(inc)) }
	if snap.NodeVisits != sum(func(st dataflow.SolverStats) int { return st.NodeVisits }) ||
		snap.WorklistPushes != sum(func(st dataflow.SolverStats) int { return st.Pushes }) ||
		snap.VectorOps != sum(func(st dataflow.SolverStats) int { return st.VecOps }) {
		t.Errorf("work counters %+v, want the sums of %+v and %+v", snap, full, inc)
	}
	if snap.Passes != sum(func(st dataflow.SolverStats) int { return st.Passes }) ||
		snap.MaxWorklistDepth != obs.Count(max(full.MaxWorklistDepth, inc.MaxWorklistDepth)) {
		t.Errorf("pass/depth counters %+v, want from %+v and %+v", snap, full, inc)
	}
	if full.Passes < 2 {
		t.Errorf("full solve took %d passes; the graph should need a second sweep", full.Passes)
	}
	n := g.NumNodes()
	if snap.SeededNodes != obs.Count(n+inc.Seeded) || snap.SeedableNodes != obs.Count(2*n) {
		t.Errorf("seed counters %+v, want %d+%d of %d", snap, n, inc.Seeded, 2*n)
	}
	if want := 1 - float64(n+inc.Seeded)/float64(2*n); snap.ReuseRate != want || want <= 0 {
		t.Errorf("reuse rate = %v, want %v > 0", snap.ReuseRate, want)
	}

	var off *obs.Collector
	g2, p2 := newGenKill(1)
	s2 := dataflow.NewSolver(g2, p2)
	s2.SetMetrics(off.DelayMetrics())
	if full2, inc2 := solveThrice(g2, p2, s2); full2 != full || inc2 != inc {
		t.Errorf("with a nil sink the solves ran %+v, %+v; want %+v, %+v", full2, inc2, full, inc)
	}
}

// TestSolverMetricsCancelled: a solve the cancellation check stops
// counts as cancelled under its kind, a full solve or a re-solve.
func TestSolverMetricsCancelled(t *testing.T) {
	g, p := newGenKill(2)
	var m obs.SolverMetrics
	s := dataflow.NewSolver(g, p)
	s.SetMetrics(&m)
	s.Full()
	s.SetCancel(func() bool { return true })
	if res := s.Resolve([]cfg.NodeID{g.Start.ID}, nil); !res.Stats.Cancelled {
		t.Fatal("re-solve ran despite the cancellation check")
	}
	if res := s.Full(); !res.Stats.Cancelled {
		t.Fatal("full solve ran despite the cancellation check")
	}
	snap := m.Snapshot()
	if snap.CancelledSolves != 2 || snap.FullSolves != 2 || snap.IncrementalSolves != 1 || snap.Solves != 3 {
		t.Errorf("cancelled accounting wrong: %+v", snap)
	}
}

// TestCollectorConcurrent: solvers and the slotwise faint reference on
// eight goroutines add to one collector's sinks (run with -race), and
// no add is lost.
func TestCollectorConcurrent(t *testing.T) {
	const workers = 8
	c := obs.NewCollector(true)
	var wg sync.WaitGroup
	var full, inc dataflow.SolverStats
	var slots int
	var once sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, p := newGenKill(3)
			s := dataflow.NewSolver(g, p)
			s.SetMetrics(c.DelayMetrics())
			f, i := solveThrice(g, p, s)
			fr := analysis.FaintVarsObserve(g, g.CollectVars(), c.FaintMetrics())
			c.Tracer().Record(obs.KindSinkRemove, "b", "x", "x := 1")
			once.Do(func() { full, inc, slots = f, i, fr.SlotUpdates })
		}()
	}
	wg.Wait()
	tel := c.Snapshot()
	if tel.Delay.Solves != 3*workers || tel.Delay.CacheHits != workers ||
		tel.Delay.NodeVisits != obs.Count(workers*(full.NodeVisits+inc.NodeVisits)) ||
		tel.Delay.MaxWorklistDepth != obs.Count(max(full.MaxWorklistDepth, inc.MaxWorklistDepth)) {
		t.Errorf("lost delay counter updates: %+v", tel.Delay)
	}
	if tel.Faint.Solves != workers || tel.Faint.SlotUpdates != obs.Count(workers*slots) || slots == 0 {
		t.Errorf("lost faint counter updates: %+v (%d slot updates a solve)", tel.Faint, slots)
	}
	if len(tel.Events) != workers {
		t.Errorf("lost trace events: %d", len(tel.Events))
	}
}
