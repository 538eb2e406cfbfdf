// Package pdce is the public API of this repository: a from-scratch
// implementation of
//
//	J. Knoop, O. Rüthing, B. Steffen:
//	"Partial Dead Code Elimination", PLDI 1994.
//
// The optimizer removes partially dead assignments — assignments dead
// along some but not all control flow paths — by alternating
// admissible assignment sinking with dead (or faint) code elimination
// until the program stabilizes. The result is optimal in the paper's
// sense: no remaining partially dead code can be eliminated without
// changing the branching structure or semantics of the program, or
// impairing some execution.
//
// Programs are nondeterministic flow graphs over three statement
// forms: assignments x := t, skip, and the relevant statements out(t)
// and branch(t) whose operands must stay alive. Two textual front ends
// are provided: a structured WHILE-language (ParseSource) and a
// low-level node/edge format (ParseCFG) capable of irreducible control
// flow.
//
// Quick start:
//
//	p, err := pdce.ParseSource("demo", `
//	    y := a + b
//	    if * {
//	        y := c
//	    }
//	    out(x + y)
//	`)
//	opt, stats, err := p.PDE()
//	fmt.Println(opt)
//
// Baselines (classic dead/faint code elimination, SSA-based DCE,
// def-use marking DCE) and the dual transformation (lazy code motion)
// are exposed for comparison, and Check replays executions to confirm
// that a transformation preserved semantics without impairing any
// execution.
package pdce

import (
	"context"
	"fmt"
	"time"

	"pdce/internal/baseline"
	"pdce/internal/batch"
	"pdce/internal/cfg"
	"pdce/internal/copyprop"
	"pdce/internal/core"
	"pdce/internal/hoist"
	"pdce/internal/interp"
	"pdce/internal/ir"
	"pdce/internal/lcm"
	"pdce/internal/obs"
	"pdce/internal/parser"
	"pdce/internal/progen"
	"pdce/internal/ssa"
	"pdce/internal/verify"
)

// Program is an immutable-by-convention flow-graph program. All
// transformations return new Programs; the receiver is never mutated.
type Program struct {
	g *cfg.Graph
}

// ParseCFG parses the low-level flow-graph language (see the
// repository README for the grammar):
//
//	graph "name"
//	node 1 { y := a+b }
//	node 2 { out(x+y) }
//	edge s 1
//	edge 1 2
//	edge 2 e
func ParseCFG(src string) (*Program, error) {
	g, err := parser.ParseCFG(src)
	if err != nil {
		return nil, &ParseError{Name: "cfg input", Err: err}
	}
	return &Program{g: g}, nil
}

// ParseSource parses the structured WHILE-language and lowers it to a
// flow graph:
//
//	x := a + b
//	while x > 0 { x := x - 1 }
//	if * { out(x) } else { skip }
func ParseSource(name, src string) (*Program, error) {
	g, err := parser.ParseSource(name, src)
	if err != nil {
		return nil, &ParseError{Name: name, Err: err}
	}
	return &Program{g: g}, nil
}

// FromGraph wraps an existing graph. Internal use by cmd binaries.
func FromGraph(g *cfg.Graph) *Program { return &Program{g: g} }

// Graph exposes the underlying graph for packages inside this module.
func (p *Program) Graph() *cfg.Graph { return p.g }

// Name returns the program name.
func (p *Program) Name() string { return p.g.Name }

// String renders a compact human-readable listing.
func (p *Program) String() string { return p.g.String() }

// Format renders the program in the parseable low-level CFG language.
func (p *Program) Format() string { return p.g.Format() }

// DOT renders the program in Graphviz syntax.
func (p *Program) DOT() string { return cfg.DOT(p.g) }

// NumStatements returns the instruction count (the paper's i).
func (p *Program) NumStatements() int { return p.g.NumStmts() }

// NumAssignments returns the number of assignment statements.
func (p *Program) NumAssignments() int { return p.g.NumAssignments() }

// NumBlocks returns the number of basic blocks including start/end.
func (p *Program) NumBlocks() int { return p.g.NumNodes() }

// Equal reports whether two programs are structurally identical.
func (p *Program) Equal(q *Program) bool { return cfg.Equal(p.g, q.g) }

// Mode selects the elimination power of Optimize.
type Mode = core.Mode

// Optimization modes.
const (
	// Dead uses the bit-vector dead-variable analysis (the paper's
	// pde).
	Dead = core.ModeDead
	// Faint uses the faint-variable analysis (the paper's pfe) —
	// strictly more powerful, solved by the same incremental solver.
	Faint = core.ModeFaint
)

// Options configures Optimize.
type Options struct {
	// Mode selects pde (Dead) or pfe (Faint).
	Mode Mode
	// MaxRounds truncates the fixpoint iteration (0 = run to the
	// optimum). Truncation trades optimality for compile time; the
	// result stays correct.
	MaxRounds int
	// KeepSynthetic retains empty synthetic nodes inserted by
	// critical-edge splitting.
	KeepSynthetic bool
	// Hot, when non-nil, localizes the optimization to the blocks
	// whose labels it accepts — the paper's Section 7 "hot areas"
	// heuristic. Cold blocks are left untouched except for code
	// arriving at their entry boundary. The end node is never cold.
	Hot func(blockLabel string) bool
	// Observe, when non-nil, receives a notification after every
	// eliminate/sink phase with a rendered snapshot of the
	// intermediate program — a window onto the second-order effects.
	Observe func(round int, phase string, changed bool, snapshot string)

	// Context, when non-nil, bounds the run: cancellation or deadline
	// expiry stops the fixpoint iteration at the next phase boundary
	// and returns the best program reached alongside a *DeadlineError.
	Context context.Context
	// RoundBudget, when positive, is a watchdog on each individual
	// eliminate+sink round: a round exceeding it stops the run the
	// same way an expired Context does. It catches stalls (a wedged
	// analysis) that a generous overall deadline would let run on.
	RoundBudget time.Duration
	// Verify enables verified mode: after every round the intermediate
	// program is checked against the input by the decision-enumeration
	// oracle on a bounded execution sample. A rejected round rolls the
	// result back to the last verified program and reports a
	// *MiscompileError. Costs roughly one interpreter sweep per round.
	Verify bool
	// VerifyRuns bounds the per-round execution sample of verified
	// mode (0 = a small default).
	VerifyRuns int
	// ReproDir, when non-empty, is where SafeOptimize and OptimizeAll
	// write repro bundles for contained panics. The directory is
	// created if missing; bundle write failures are reported in the
	// *PanicError, never as a separate failure.
	ReproDir string

	// Telemetry enables cost-counter collection: per-analysis solver
	// metrics (solves, node visits, worklist pushes, incremental-reuse
	// rate, bit-vector ops), returned as Stats.Telemetry. Off by
	// default; when off, the optimizer's hot path is byte-identical to
	// an uninstrumented build.
	Telemetry bool
	// Trace additionally records the provenance event stream — one
	// structured event per split edge, elimination, sinking-candidate
	// removal, insertion, and fusion — in Stats.Telemetry.Events.
	// Implies Telemetry. Tracing allocates per event; leave it off in
	// performance measurements.
	Trace bool

	// Span, when non-nil, is the request-tracing span covering this
	// run: the solver opens "solve.round" child spans with per-phase
	// children under it and annotates it with round/effect counts.
	// The optimizer never ends the span; its creator does. Nil (the
	// default) keeps the hot path free of tracing work. Span does not
	// participate in Options.Fingerprint — it cannot change the
	// output.
	Span *Span
	// RequestTag, when non-empty, labels artifacts this run emits on
	// failure: SafeOptimize stamps it (sanitized) into repro-bundle
	// filenames so a failed request's Pdce-Request-Id leads straight
	// to its bundle. Like Span it is not part of the fingerprint.
	RequestTag string
}

// Telemetry is the observability section of a run: per-analysis solver
// metrics and (with Options.Trace) the provenance event stream. See
// the internal/obs package documentation for field semantics; the type
// serializes to stable JSON.
type Telemetry = obs.Telemetry

// SolverMetrics is one analysis's frozen cost counters.
type SolverMetrics = obs.SolverSnapshot

// TraceEvent is one provenance record of Telemetry.Events.
type TraceEvent = obs.Event

// Provenance event kinds (TraceEvent.Kind).
const (
	EventSplitEdge   = obs.KindSplitEdge
	EventEliminate   = obs.KindEliminate
	EventSinkRemove  = obs.KindSinkRemove
	EventInsertEntry = obs.KindInsertEntry
	EventInsertExit  = obs.KindInsertExit
	EventFuse        = obs.KindFuse
)

// Stats reports what an optimization run did.
type Stats struct {
	// Rounds is the number of eliminate+sink rounds (the paper's r).
	Rounds int `json:"rounds"`
	// Eliminated counts assignments removed by elimination steps;
	// SinkRemoved/Inserted count the sinking transformation's
	// removals and materializations.
	Eliminated  int `json:"eliminated"`
	SinkRemoved int `json:"sink_removed"`
	Inserted    int `json:"inserted"`
	// CriticalEdges is the number of edges split up front.
	CriticalEdges int `json:"critical_edges"`
	// OriginalStmts/FinalStmts/PeakStmts track code size; the
	// paper's growth factor w is PeakStmts/OriginalStmts.
	OriginalStmts int `json:"original_stmts"`
	FinalStmts    int `json:"final_stmts"`
	PeakStmts     int `json:"peak_stmts"`

	// Telemetry is present exactly when Options.Telemetry (or Trace)
	// was set.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// GrowthFactor returns the paper's w.
func (s Stats) GrowthFactor() float64 {
	if s.OriginalStmts == 0 {
		return 1
	}
	return float64(s.PeakStmts) / float64(s.OriginalStmts)
}

func fromCoreStats(st core.Stats) Stats {
	return Stats{
		Rounds:        st.Rounds,
		Eliminated:    st.Eliminated,
		SinkRemoved:   st.SinkRemoved,
		Inserted:      st.Inserted,
		CriticalEdges: st.CriticalEdges,
		OriginalStmts: st.OriginalStmts,
		FinalStmts:    st.FinalStmts,
		PeakStmts:     st.PeakStmts,
		Telemetry:     st.Telemetry,
	}
}

// coreOptions lowers the public options to the driver's.
func (o Options) coreOptions() core.Options {
	copt := core.Options{
		Mode:          o.Mode,
		MaxRounds:     o.MaxRounds,
		KeepSynthetic: o.KeepSynthetic,
		Ctx:           o.Context,
		RoundBudget:   o.RoundBudget,
		Span:          o.Span,
	}
	if o.Telemetry || o.Trace {
		copt.Collector = obs.NewCollector(o.Trace)
	}
	if o.Hot != nil {
		hot := o.Hot
		copt.Hot = func(n *cfg.Node) bool { return hot(n.Label) }
	}
	if o.Observe != nil {
		observe := o.Observe
		copt.Observe = func(ev core.PhaseEvent) {
			observe(ev.Round, ev.Phase, ev.Changed, ev.Graph.String())
		}
	}
	return copt
}

// Optimize runs partial dead (faint) code elimination and returns the
// optimized program.
//
// Errors follow the taxonomy in errors.go: watchdog stops
// (Options.Context, Options.RoundBudget) and verified-mode rollbacks
// (Options.Verify) return a non-nil partial Program — the best correct
// result reached — together with a *DeadlineError or *MiscompileError;
// any other error returns a nil Program. SafeOptimize additionally
// contains panics and never returns nil.
func (p *Program) Optimize(o Options) (*Program, Stats, error) {
	copt := o.coreOptions()
	if o.Verify {
		copt.RoundCheck = verifyRoundCheck(p.g, o.VerifyRuns)
	}
	g, st, err := core.Transform(p.g, copt)
	if err != nil {
		err = mapCoreError(err)
		if g != nil {
			// Watchdog or rollback: the graph is the best correct
			// partial result, surfaced alongside the error.
			return &Program{g: g}, fromCoreStats(st), err
		}
		return nil, Stats{}, err
	}
	return &Program{g: g}, fromCoreStats(st), nil
}

// BatchResult is the outcome of one program of an OptimizeAll batch.
type BatchResult struct {
	// Name is the program's name; results preserve input order.
	Name string
	// Program is the optimized program. With a non-nil Err it is
	// SafeOptimize's degraded result: the best partial program for
	// ErrDeadline/ErrMiscompile, the unchanged input for ErrPanic and
	// any other failure, and nil only for jobs never started (a
	// cancelled batch, Err matching the context's error).
	Program *Program
	Stats   Stats
	Err     error

	// Duration is the job's wall-clock optimization time; Worker the
	// 0-based pool worker that ran it (-1 for jobs never started).
	Duration time.Duration
	Worker   int
}

// OptimizeAll optimizes every program concurrently with at most
// workers simultaneous runs (workers <= 0 selects GOMAXPROCS). Each
// run is independent — inputs are never mutated — and results are
// returned in input order. The function-valued options (Hot, Observe)
// are shared across all runs and must be safe for concurrent use;
// Observe additionally receives interleaved events from different
// programs, so most batch callers leave it nil.
//
// Each job is SafeOptimize on its program: a panicking job is
// recovered (repro bundle in Options.ReproDir, if set) and reports the
// input unchanged; watchdog and verified-mode stops report partial
// programs. Cancelling Options.Context stops dispatch — jobs not yet
// started report the context's error with a nil Program — and the
// worker pool always drains before returning. Options.Span is
// ignored: no job runs under a span.
func OptimizeAll(programs []*Program, o Options, workers int) []BatchResult {
	results, _ := OptimizeAllObserved(programs, o, workers, nil)
	return results
}

// OptimizeAllObserved is OptimizeAll with batch observability: tk, when
// non-nil, publishes live progress while the pool runs (poll
// tk.Snapshot from another goroutine), and the returned BatchMetrics
// aggregates the finished batch — failure classes, latency percentiles
// (p50/p95/max), and per-worker load. Each job collects its own
// telemetry when Options.Telemetry or Options.Trace is set: collectors
// are created per job, never shared, so per-program Stats.Telemetry is
// exact even under full concurrency.
func OptimizeAllObserved(programs []*Program, o Options, workers int, tk *BatchTracker) ([]BatchResult, BatchMetrics) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	o.Span = nil
	out := make([]BatchResult, len(programs))
	res := batch.Run(ctx, len(programs), workers, tk, func(i, _ int) string {
		r := &out[i]
		r.Program, r.Stats, r.Err = programs[i].SafeOptimize(o)
		return ErrorKind(r.Err)
	})
	for i, r := range res {
		out[i].Name, out[i].Duration, out[i].Worker = programs[i].Name(), r.Duration, r.Worker
		if r.Worker < 0 {
			out[i].Err = ctx.Err()
		}
	}
	return out, batch.ComputeMetrics(res)
}

// PDE runs partial dead code elimination to its optimum.
func (p *Program) PDE() (*Program, Stats, error) { return p.Optimize(Options{Mode: Dead}) }

// PFE runs partial faint code elimination to its optimum.
func (p *Program) PFE() (*Program, Stats, error) { return p.Optimize(Options{Mode: Faint}) }

// --- baselines -------------------------------------------------------

// DeadCodeElimination applies classic iterated dead code elimination
// (no code motion) — the "usual approach" the paper improves on.
func (p *Program) DeadCodeElimination() (*Program, int) {
	r := baseline.IteratedDCE(p.g)
	return &Program{g: r.Graph}, r.Removed
}

// FaintCodeElimination applies iterated faint code elimination (no
// code motion).
func (p *Program) FaintCodeElimination() (*Program, int) {
	r := baseline.IteratedFCE(p.g)
	return &Program{g: r.Graph}, r.Removed
}

// SSADeadCodeElimination applies the sparse def-use (SSA mark-sweep)
// elimination of Cytron et al. — the paper's reference [5] baseline.
func (p *Program) SSADeadCodeElimination() (*Program, int) {
	g, removed := ssa.Eliminate(p.g)
	return &Program{g: g}, removed
}

// DefUseDCE applies the classic def-use-graph marking elimination.
func (p *Program) DefUseDCE() (*Program, int) {
	r := baseline.DefUseDCE(p.g)
	return &Program{g: r.Graph}, r.Removed
}

// HoistAssignments applies assignment hoisting — the Related-Work
// baseline [9] that moves assignments against the control flow. It is
// semantics preserving and exactly cost-neutral (every path executes
// the same assignment instances, earlier); in particular it cannot
// eliminate partially dead code, which is the paper's argument for
// sinking instead.
func (p *Program) HoistAssignments() (*Program, error) {
	g, _, err := hoist.Optimize(p.g)
	if err != nil {
		return nil, err
	}
	return &Program{g: g}, nil
}

// CopyPropagation applies global copy propagation: uses of x after a
// copy x := y that provably still holds are rewritten to y. The
// then-dead copies are left for the elimination passes. Returns the
// transformed program and the number of rewritten statements.
func (p *Program) CopyPropagation() (*Program, int) {
	g, st := copyprop.Optimize(p.g)
	return &Program{g: g}, st.Rewritten
}

// LazyCodeMotion applies partial redundancy elimination (the dual
// transformation) and returns the transformed program together with
// the number of inserted temporaries and replaced computations.
func (p *Program) LazyCodeMotion() (*Program, int, int, error) {
	r, err := lcm.Optimize(p.g)
	if err != nil {
		return nil, 0, 0, err
	}
	return &Program{g: r.Graph}, r.Inserted, r.Deleted + r.Rewritten, nil
}

// --- execution and verification --------------------------------------

// Trace is the observable record of one interpreted execution.
type Trace struct {
	// Outputs is the sequence of out(...) values.
	Outputs []int64
	// Terminated is true when the end node was reached, false when
	// the fuel bound was hit or a run-time error occurred.
	Terminated bool
	// Faulted is true when evaluation raised a run-time error
	// (division or modulus by zero); Err carries it.
	Faulted bool
	Err     error
	// AssignExecs is the number of executed assignment instances —
	// the dynamic cost partial dead code elimination minimizes.
	AssignExecs int
	// TermEvals is the number of non-trivial expression
	// evaluations — the dynamic cost lazy code motion minimizes.
	TermEvals int
	// Decisions records the branch choices taken, replayable via
	// RunDecisions.
	Decisions []int
	// VisitsPerBlock is the execution profile: how often each block
	// ran. Feed the hot set it induces into Options.Hot for
	// profile-guided regional optimization (the paper's Section 7).
	VisitsPerBlock map[string]int
}

func fromTrace(t *interp.Trace) Trace {
	return Trace{
		Outputs:        t.Outputs,
		Terminated:     t.Outcome == interp.Terminated,
		Faulted:        t.Outcome == interp.Faulted,
		Err:            t.Err,
		AssignExecs:    t.AssignExecs,
		TermEvals:      t.TermEvals,
		Decisions:      t.Decisions,
		VisitsPerBlock: t.VisitsPerBlock,
	}
}

// Run executes the program, resolving nondeterministic branches from
// the seed. Fuel bounds the execution in block visits (0 = default).
func (p *Program) Run(seed uint64, fuel int) Trace {
	return fromTrace(interp.Run(p.g, interp.NewSeededOracle(seed), interp.Config{MaxBlockVisits: fuel}))
}

// RunWithInput is Run with an initial variable store.
func (p *Program) RunWithInput(seed uint64, fuel int, input map[string]int64) Trace {
	in := make(map[ir.Var]int64, len(input))
	for k, v := range input {
		in[ir.Var(k)] = v
	}
	return fromTrace(interp.Run(p.g, interp.NewSeededOracle(seed), interp.Config{MaxBlockVisits: fuel, Input: in}))
}

// RunDecisions replays a recorded branch-decision sequence.
func (p *Program) RunDecisions(decisions []int, fuel int) Trace {
	return fromTrace(interp.Replay(p.g, decisions, interp.Config{MaxBlockVisits: fuel}))
}

// Check verifies that opt is a faithful optimization of p: over the
// given number of sampled executions, outputs agree (modulo
// fault-potential reduction) and no execution runs more assignment
// instances of any pattern. A nil error means the pair passed.
func (p *Program) Check(opt *Program, executions int) error {
	rep := verify.CheckTransformed(p.g, opt.g, verify.Options{Seeds: executions})
	if !rep.OK() {
		return fmt.Errorf("%s", rep.String())
	}
	return nil
}

// CheckOutputs verifies observable behaviour only (output traces,
// modulo fault reduction), without the non-impairment comparison. Use
// it for transformations that legitimately introduce assignments, such
// as LazyCodeMotion's temporaries.
func (p *Program) CheckOutputs(opt *Program, executions int) error {
	rep := verify.CheckTransformed(p.g, opt.g, verify.Options{Seeds: executions, OutputsOnly: true})
	if !rep.OK() {
		return fmt.Errorf("%s", rep.String())
	}
	return nil
}

// Savings samples executions of both programs and returns the fraction
// of dynamic assignment executions the optimization removed.
func (p *Program) Savings(opt *Program, executions int) float64 {
	return verify.MeasureImprovement(p.g, opt.g, executions, 0).Savings()
}

// --- workload generation ----------------------------------------------

// GenParams configures random program generation (see
// internal/progen for the full knob set semantics).
type GenParams struct {
	Seed        int64
	Stmts       int
	Vars        int
	Irreducible bool
}

// Generate produces a deterministic random program, useful for
// experimentation and benchmarking.
func Generate(p GenParams) *Program {
	return &Program{g: progen.Generate(progen.Params{
		Seed:        p.Seed,
		Stmts:       p.Stmts,
		Vars:        p.Vars,
		Irreducible: p.Irreducible,
	})}
}

// --- pass pipeline -----------------------------------------------------

// Passes runs a named sequence of transformations, threading the
// program through each. Recognized pass names: "pde", "pfe", "dce",
// "fce", "ssadce", "dudce", "lcm", "copyprop", "hoist". Unknown names
// return an error. Example: Passes("lcm", "copyprop", "pde") composes
// partial redundancy elimination with copy propagation and partial
// dead code elimination into a small optimizer.
func (p *Program) Passes(names ...string) (*Program, error) {
	cur := p
	for _, name := range names {
		var next *Program
		var err error
		switch name {
		case "pde":
			next, _, err = cur.PDE()
		case "pfe":
			next, _, err = cur.PFE()
		case "dce":
			next, _ = cur.DeadCodeElimination()
		case "fce":
			next, _ = cur.FaintCodeElimination()
		case "ssadce":
			next, _ = cur.SSADeadCodeElimination()
		case "dudce":
			next, _ = cur.DefUseDCE()
		case "lcm":
			next, _, _, err = cur.LazyCodeMotion()
		case "copyprop":
			next, _ = cur.CopyPropagation()
		case "hoist":
			next, err = cur.HoistAssignments()
		default:
			return nil, fmt.Errorf("pdce: unknown pass %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("pdce: pass %q: %w", name, err)
		}
		cur = next
	}
	return cur, nil
}
