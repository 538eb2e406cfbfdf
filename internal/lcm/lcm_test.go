package lcm

import (
	"testing"

	"strings"

	"pdce/internal/analysis"
	"pdce/internal/cfg"
	"pdce/internal/interp"
	"pdce/internal/ir"
	"pdce/internal/parser"
	"pdce/internal/progen"
	"pdce/internal/verify"
)

func optimize(t *testing.T, src string) (*cfg.Graph, *cfg.Graph, Result) {
	t.Helper()
	g := parser.MustParseCFG(src)
	r, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, r.Graph, r
}

// checkSemantics replays executions; LCM must preserve outputs and
// never increase the number of dynamic term evaluations.
func checkSemantics(t *testing.T, orig, opt *cfg.Graph) {
	t.Helper()
	rep := verify.CheckTransformed(orig, opt, verify.Options{Seeds: 48, Fuel: 512, OutputsOnly: true})
	if !rep.OK() {
		t.Fatalf("semantics broken: %s\norig:\n%s\nopt:\n%s", rep, orig, opt)
	}
	for seed := uint64(0); seed < 24; seed++ {
		a := interp.Run(orig, interp.NewSeededOracle(seed), interp.Config{MaxBlockVisits: 512})
		if a.Outcome != interp.Terminated {
			continue
		}
		b := interp.Replay(opt, a.Decisions, interp.Config{MaxBlockVisits: 512})
		if b.Outcome != interp.Terminated {
			t.Fatalf("seed %d: optimized run did not terminate", seed)
		}
		if b.TermEvals > a.TermEvals {
			t.Fatalf("seed %d: term evaluations grew %d -> %d\norig:\n%s\nopt:\n%s",
				seed, a.TermEvals, b.TermEvals, orig, opt)
		}
	}
}

func TestFullRedundancyInDiamond(t *testing.T) {
	// a+b computed on both branch arms and again at the join: the
	// join computation is fully redundant.
	src := `
node a {}
node b { x := a+b }
node c { y := a+b }
node d { z := a+b; out(x+y+z) }
edge s a
edge a b
edge a c
edge b d
edge c d
edge d e
`
	orig, opt, _ := optimize(t, src)
	checkSemantics(t, orig, opt)
	// The join must not evaluate a+b anymore.
	d, _ := opt.NodeByLabel("d")
	for _, s := range d.Stmts {
		if s.String() == "z := a+b" {
			t.Errorf("fully redundant computation survived:\n%s", opt)
		}
	}
}

func TestPartialRedundancyInsertion(t *testing.T) {
	// Classic partial redundancy: a+b available on one branch only;
	// LCM inserts on the other branch and deletes at the join.
	src := `
node a {}
node b { x := a+b }
node c {}
node d { z := a+b; out(x+z) }
edge s a
edge a b
edge a c
edge b d
edge c d
edge d e
`
	orig, opt, r := optimize(t, src)
	checkSemantics(t, orig, opt)
	if r.Inserted == 0 {
		t.Error("no insertion for the partially redundant path")
	}
	// On the b-path, a+b must now be evaluated exactly once.
	a := interp.Replay(orig, []int{0}, interp.Config{})
	b := interp.Replay(opt, []int{0}, interp.Config{})
	if b.TermEvals >= a.TermEvals {
		t.Errorf("b-path term evals %d -> %d, want a reduction", a.TermEvals, b.TermEvals)
	}
}

func TestLoopInvariantHoisting(t *testing.T) {
	g := parser.MustParseSource("p", `
i := n
r := 0
do {
    step := a * b
    r := r + step
    i := i - 1
} while i > 0
out(r)
`)
	r, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	checkSemantics(t, g, r.Graph)
	// With n=100, a*b must be evaluated once, not 100 times.
	input := map[string]int64{"n": 100, "a": 3, "b": 4}
	before := interp.Run(g, interp.NewSeededOracle(1), interp.Config{Input: toVarMap(input), MaxBlockVisits: 2048})
	after := interp.Run(r.Graph, interp.NewSeededOracle(1), interp.Config{Input: toVarMap(input), MaxBlockVisits: 2048})
	if before.Outcome != interp.Terminated || after.Outcome != interp.Terminated {
		t.Fatal("executions did not terminate")
	}
	// before: 100×(a*b) + 100×(r+step) + 100×(i-1) + branches(i>0)
	// after: the a*b term collapses to ~1.
	saved := before.TermEvals - after.TermEvals
	if saved < 90 {
		t.Errorf("hoisting saved only %d term evals (before=%d after=%d)\n%s",
			saved, before.TermEvals, after.TermEvals, r.Graph)
	}
}

func toVarMap(m map[string]int64) map[ir.Var]int64 {
	out := make(map[ir.Var]int64, len(m))
	for k, v := range m {
		out[ir.Var(k)] = v
	}
	return out
}

func TestNoMotionIntoLoop(t *testing.T) {
	// An expression used only after the loop must not be hoisted
	// into it (down-safety would be violated only in the other
	// direction; here we guard against gratuitous insertion).
	g := parser.MustParseSource("p", `
i := n
do {
    i := i - 1
} while i > 0
z := a * b
out(z)
`)
	r, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	checkSemantics(t, g, r.Graph)
	// a*b is evaluated exactly once before and after.
	before := interp.Run(g, interp.NewSeededOracle(1), interp.Config{Input: toVarMap(map[string]int64{"n": 50}), MaxBlockVisits: 2048})
	after := interp.Run(r.Graph, interp.NewSeededOracle(1), interp.Config{Input: toVarMap(map[string]int64{"n": 50}), MaxBlockVisits: 2048})
	if after.TermEvals > before.TermEvals {
		t.Errorf("lcm increased term evals %d -> %d", before.TermEvals, after.TermEvals)
	}
}

func TestNoUnsafeSpeculation(t *testing.T) {
	// a/b only computed on one branch; hoisting above the branch
	// would introduce a fault on the other path. Down-safety must
	// prevent it: the branch-free path never evaluates a/b.
	src := `
node a {}
node b { x := c/d; out(x) }
node c2 { out(0) }
node j {}
edge s a
edge a b
edge a c2
edge b j
edge c2 j
edge j e
`
	orig, opt, _ := optimize(t, src)
	// Take the c2 path with d = 0: must not fault.
	tr := interp.Replay(opt, []int{1}, interp.Config{})
	if tr.Outcome == interp.Faulted {
		t.Fatalf("lcm speculated a faulting division onto a safe path:\n%s", opt)
	}
	checkSemantics(t, orig, opt)
}

func TestRandomProgramsSemantics(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		params := progen.Params{Seed: seed, Stmts: 50, Vars: 5, LoopProb: 0.15, BranchProb: 0.25}
		if seed%5 == 0 {
			params.Irreducible = true
		}
		g := progen.Generate(params)
		r, err := Optimize(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg.MustValidate(r.Graph)
		rep := verify.CheckTransformed(g, r.Graph, verify.Options{Seeds: 24, Fuel: 512, OutputsOnly: true})
		if !rep.OK() {
			t.Errorf("seed %d: %s", seed, rep)
		}
		// Never more term evaluations on any replayed execution.
		for s := uint64(0); s < 12; s++ {
			a := interp.Run(g, interp.NewSeededOracle(s), interp.Config{MaxBlockVisits: 512})
			if a.Outcome != interp.Terminated {
				continue
			}
			b := interp.Replay(r.Graph, a.Decisions, interp.Config{MaxBlockVisits: 512})
			if b.Outcome == interp.Terminated && b.TermEvals > a.TermEvals {
				t.Errorf("seed %d run %d: term evals grew %d -> %d", seed, s, a.TermEvals, b.TermEvals)
			}
		}
	}
}

func TestCollectTerms(t *testing.T) {
	g := parser.MustParseCFG(`
node 1 { x := a+b; y := a+b; z := x; w := 5 }
node 2 { out(x+y+z+w) }
edge s 1
edge 1 2
edge 2 e
`)
	tt := CollectTerms(g)
	// Only the compound a+b counts; z := x and w := 5 are trivial.
	if tt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tt.Len())
	}
	if tt.Term(0).Key() != "(a+b)" {
		t.Errorf("term = %q", tt.Term(0).Key())
	}
}

func TestOptimizeIdempotentOnCleanProgram(t *testing.T) {
	// A program with no redundancy: LCM must leave dynamic behaviour
	// unchanged (no insertions at all).
	g := parser.MustParseSource("p", `
x := a + b
out(x)
`)
	r, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inserted != 0 {
		t.Errorf("clean program got %d insertions:\n%s", r.Inserted, r.Graph)
	}
	checkSemantics(t, g, r.Graph)
}

// --- busy vs lazy placement ---------------------------------------------

// TestBusyEqualsLazyComputationally: both placements are
// computationally optimal — identical term-evaluation counts on every
// replayed execution (the PLDI'92 result their difference is NOT
// about).
func TestBusyEqualsLazyComputationally(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := progen.Generate(progen.Params{Seed: seed, Stmts: 50, Vars: 5, LoopProb: 0.15, BranchProb: 0.25})
		lazy, err := OptimizeWith(g, Lazy)
		if err != nil {
			t.Fatal(err)
		}
		busy, err := OptimizeWith(g, Busy)
		if err != nil {
			t.Fatal(err)
		}
		checkSemantics(t, g, busy.Graph)
		for s := uint64(0); s < 16; s++ {
			a := interp.Run(lazy.Graph, interp.NewSeededOracle(s), interp.Config{MaxBlockVisits: 512})
			if a.Outcome != interp.Terminated {
				continue
			}
			b := interp.Replay(busy.Graph, a.Decisions, interp.Config{MaxBlockVisits: 512})
			if b.Outcome != interp.Terminated {
				continue
			}
			if a.TermEvals != b.TermEvals {
				t.Fatalf("seed %d run %d: lazy %d vs busy %d term evals",
					seed, s, a.TermEvals, b.TermEvals)
			}
		}
	}
}

// TestLazyShortensTempLifetimes reproduces the lazy-code-motion
// headline: on a program where the earliest safe point is far above
// the use, busy placement keeps the temporary live across the gap
// while lazy placement defers it — measurably lower liveness pressure.
func TestLazyShortensTempLifetimes(t *testing.T) {
	// a+b is safe to compute at the top (used on every path), but
	// its only uses are far below, past a stretch of unrelated code.
	g := parser.MustParseCFG(`
node top {}
node gap1 { p := 1 }
node gap2 { q := p+1 }
node gap3 { r := q+1 }
node use1 { x := a+b; out(x+r) }
node use2 { y := a+b; out(y+r) }
node join {}
edge s top
edge top gap1
edge gap1 gap2
edge gap2 gap3
edge gap3 use1
edge gap3 use2
edge use1 join
edge use2 join
edge join e
`)
	lazy, err := OptimizeWith(g, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := OptimizeWith(g, Busy)
	if err != nil {
		t.Fatal(err)
	}
	checkSemantics(t, g, lazy.Graph)
	checkSemantics(t, g, busy.Graph)
	// The PLDI'92 claim is specifically about the lifetimes of the
	// *introduced temporaries* (whole-program pressure can move
	// either way: an early temp can retire two operands). Count
	// program points where some h.* temporary is live.
	ll := tempLivePoints(t, lazy.Graph)
	lb := tempLivePoints(t, busy.Graph)
	if ll >= lb {
		t.Errorf("lazy temp lifetime %d not below busy %d\nlazy:\n%s\nbusy:\n%s",
			ll, lb, lazy.Graph, busy.Graph)
	}
	// Both placements are computationally optimal *per execution*:
	// every path evaluates a+b exactly once. (Lazy may hold more
	// static copies — one per branch — which is exactly how it wins
	// on lifetimes.)
	for name, r := range map[string]Result{"lazy": lazy, "busy": busy} {
		for _, decision := range [][]int{{0}, {1}} {
			tr := interp.Replay(r.Graph, decision, interp.Config{})
			if tr.Outcome != interp.Terminated {
				t.Fatalf("%s/%v: did not terminate", name, decision)
			}
			evals := 0
			for p, c := range tr.PatternExecs {
				if p.RHS == "(a+b)" {
					evals += c
				}
			}
			if evals != 1 {
				t.Errorf("%s placement evaluated a+b %d times on path %v, want 1",
					name, evals, decision)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Lazy.String() != "lazy" || Busy.String() != "busy" {
		t.Error("strategy names wrong")
	}
}

// tempLivePoints counts (program point, temporary) pairs where an
// lcm-introduced temporary (h.*) is live — the lifetime quantity lazy
// placement minimizes.
func tempLivePoints(t *testing.T, g *cfg.Graph) int {
	t.Helper()
	dead := analysis.DeadVars(g)
	var temps []int
	for vi := 0; vi < dead.Vars.Len(); vi++ {
		if strings.HasPrefix(string(dead.Vars.Var(vi)), "h.") {
			temps = append(temps, vi)
		}
	}
	points := 0
	for _, n := range g.Nodes() {
		xd := dead.InstrX(n)
		for si := range n.Stmts {
			for _, vi := range temps {
				if !xd[si].Get(vi) {
					points++
				}
			}
		}
	}
	return points
}
