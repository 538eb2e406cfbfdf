package core

import (
	"context"
	"fmt"
	"time"

	"pdce/internal/analysis"
	"pdce/internal/cfg"
	"pdce/internal/faultinject"
	"pdce/internal/ir"
	"pdce/internal/obs"
)

// Mode selects the elimination power of the driver.
type Mode int

// Driver modes.
const (
	// ModeDead alternates assignment sinking with dead code
	// elimination — the paper's pde.
	ModeDead Mode = iota
	// ModeFaint alternates assignment sinking with faint code
	// elimination — the paper's pfe.
	ModeFaint
)

func (m Mode) String() string {
	if m == ModeFaint {
		return "pfe"
	}
	return "pde"
}

// Options configures the driver.
type Options struct {
	// Mode selects pde (dead) or pfe (faint).
	Mode Mode

	// MaxRounds limits the number of eliminate+sink rounds; 0 means
	// iterate to the fixpoint. The paper suggests such limits as a
	// practical heuristic (Section 7); with a limit the result may
	// be suboptimal but is still correct.
	MaxRounds int

	// KeepSynthetic retains empty synthetic nodes from
	// critical-edge splitting in the result. By default they are
	// removed again (the paper draws them dashed; only the ones
	// that received an insertion materialize, like S4,5 in
	// Figure 6).
	KeepSynthetic bool

	// Hot, when non-nil, localizes the optimization to the blocks
	// it accepts — the paper's Section 7 "hot areas" heuristic.
	// Cold blocks are left textually untouched: no code moves out
	// of, into, or through them (arriving code stops at their
	// entry), and nothing inside them is eliminated. The end node
	// is never cold, so code sinking off the end of the program is
	// dropped as in an unrestricted run.
	Hot HotPredicate

	// NoIncremental forces the reference driver, which rebuilds the
	// variable and pattern universes and re-solves every analysis
	// from scratch each round. The default incremental driver fixes
	// the universes once and re-seeds each round's solvers from the
	// previous solution plus the blocks that changed; the two
	// produce identical programs (the equivalence property tests
	// pin this down), so this switch exists for cross-checking and
	// for measuring the incremental speedup.
	NoIncremental bool

	// Observe, when non-nil, is called after every elimination and
	// sinking phase with a snapshot of the intermediate program —
	// the way to watch the paper's second-order effects unfold.
	// Snapshotting clones the graph, so leave this nil in
	// performance-sensitive runs.
	Observe func(PhaseEvent)

	// Ctx, when non-nil, bounds the run: when it is cancelled or its
	// deadline expires, the fixpoint iteration stops at the next
	// checkpoint (a phase boundary, or mid-solve via the solvers'
	// cancellation hook) and Transform returns the best
	// phase-boundary graph reached so far together with an
	// *InterruptError. The graph is correct — every phase boundary
	// is — just possibly short of the optimum.
	Ctx context.Context

	// RoundBudget, when positive, bounds each eliminate+sink round's
	// wall-clock time. A round that exceeds it is abandoned the same
	// way a context expiry is. Ctx and RoundBudget compose; either
	// alone activates the watchdog.
	RoundBudget time.Duration

	// RoundCheck, when non-nil, is invoked after every completed
	// round with the current working graph (synthetic nodes still
	// present) and the 1-based round number. A non-nil return stops
	// the run: Transform rolls back to the last graph the check
	// accepted (the untransformed input when round 1 fails) and
	// returns it with a *RoundCheckError. This is the hook behind
	// verified mode: the caller supplies a semantics oracle
	// comparing the intermediate graph against the original input.
	RoundCheck func(g *cfg.Graph, round int) error

	// Collector, when non-nil, receives the run's telemetry: solver
	// cost counters per analysis and — when the collector's Trace is
	// armed — the provenance event stream (one event per split edge,
	// elimination, candidate removal, insertion, and fusion).
	// Transform attaches the frozen snapshot to Stats.Telemetry. A nil
	// collector makes every collection point a no-op.
	Collector *obs.Collector

	// Span, when non-nil, is the request-tracing span covering this
	// run: each fixpoint round opens a "solve.round" child with
	// "solve.eliminate"/"solve.sink" phase children, and Transform
	// annotates the span with round and effect counts on exit. The
	// driver never ends the span — its creator does. A nil span costs
	// one pointer check per phase and allocates nothing (the same
	// discipline as Collector).
	Span *obs.Span
}

// roundSpans manages one driver loop's round and phase child spans.
// All methods no-op when the run is untraced (nil parent), keeping the
// hot loop allocation-free.
type roundSpans struct {
	parent *obs.Span
	round  *obs.Span
	phase  *obs.Span
}

func (rs *roundSpans) beginRound(n int) {
	if rs.parent == nil {
		return
	}
	rs.endRound()
	rs.round = rs.parent.Child("solve.round")
	rs.round.SetInt("round", int64(n))
}

func (rs *roundSpans) beginPhase(name string) {
	if rs.parent == nil {
		return
	}
	rs.phase.End()
	rs.phase = rs.round.Child(name)
}

func (rs *roundSpans) endRound() {
	if rs.parent == nil {
		return
	}
	rs.phase.End()
	rs.phase = nil
	rs.round.End()
	rs.round = nil
}

// PhaseEvent describes one completed phase of the fixpoint iteration.
type PhaseEvent struct {
	// Round is the 1-based round number; Phase is "eliminate" or
	// "sink".
	Round int
	Phase string
	// Changed reports whether the phase altered the program;
	// Removed and Inserted count its statement-level effects.
	Changed           bool
	Removed, Inserted int
	// Graph is an isolated snapshot of the program after the phase.
	Graph *cfg.Graph
}

// Stats describes a full driver run. It is pdce.Stats, so its JSON
// form is the "stats" object of pdced's replies and of -metrics-json.
type Stats struct {
	// Rounds is the number of eliminate+sink rounds executed
	// (including the final round that confirmed stability) — the
	// paper's iteration count r.
	Rounds int `json:"rounds"`

	// Eliminated is the total number of assignments removed by
	// elimination steps; SinkRemoved counts the sinking
	// transformation's candidate removals and Inserted its
	// materialized instances.
	Eliminated  int `json:"eliminated"`
	SinkRemoved int `json:"sink_removed"`
	Inserted    int `json:"inserted"`
	// CriticalEdges is the number of edges split up front.
	CriticalEdges int `json:"critical_edges"`

	// OriginalStmts, FinalStmts and PeakStmts track code size; the
	// paper's growth factor w is PeakStmts/OriginalStmts
	// (Section 6.2).
	OriginalStmts int `json:"original_stmts"`
	FinalStmts    int `json:"final_stmts"`
	PeakStmts     int `json:"peak_stmts"`

	// Telemetry is the frozen observability snapshot of the run,
	// non-nil exactly when Options.Collector was set.
	Telemetry *obs.Telemetry `json:"telemetry,omitempty"`
}

// GrowthFactor returns the paper's w: the maximal factor by which the
// instruction count grew during the run.
func (s Stats) GrowthFactor() float64 {
	if s.OriginalStmts == 0 {
		return 1
	}
	return float64(s.PeakStmts) / float64(s.OriginalStmts)
}

// errInvalid and errNoFixpoint keep error texts consistent between the
// deterministic and the chaotic driver.
func errInvalid(msg string) error {
	return fmt.Errorf("core: invalid graph: %s", msg)
}

func errNoFixpoint(mode Mode, limit int) error {
	return fmt.Errorf("core: %s did not stabilize within %d rounds (implementation bug)", mode, limit)
}

// roundCap returns the safety bound on driver rounds. Termination is
// guaranteed by the paper's Theorem 3.7; the cap converts a potential
// implementation bug from a hang into an error.
func roundCap(g *cfg.Graph) int {
	return 10*g.NumStmts() + 10*g.NumNodes() + 100
}

// Transform runs partial dead (faint) code elimination on a copy of g
// and returns the optimized program. The input graph is not modified.
//
// The driver first splits critical edges (Section 2.1), then
// alternates elimination and sinking until neither changes the
// program (Section 5.4). Eliminating before sinking lets the first
// sinking step start from a minimal program; the fixpoint is
// independent of this order (Theorem 3.7: any chaotic iteration that
// applies both transformations sufficiently often reaches the optimum).
//
// Two error classes come with a non-nil, usable graph (Partial
// reports them): an *InterruptError carries the best phase-boundary
// program the watchdog allowed, a *RoundCheckError the last program
// Options.RoundCheck accepted. All other errors return a nil graph.
func Transform(g *cfg.Graph, opt Options) (*cfg.Graph, Stats, error) {
	if errs := cfg.Validate(g); len(errs) > 0 {
		return nil, Stats{}, fmt.Errorf("core: invalid input graph: %s", errs[0])
	}
	out := g.Clone()
	var st Stats
	st.OriginalStmts = out.NumStmts()
	st.PeakStmts = st.OriginalStmts
	synth := cfg.SplitCriticalEdges(out)
	st.CriticalEdges = len(synth)
	if tr := opt.Collector.Tracer(); tr != nil {
		tr.BeginPhase(0, "setup", "")
		for _, m := range synth {
			from, to := "?", "?"
			if ps := m.Preds(); len(ps) == 1 {
				from = ps[0].Label
			}
			if ss := m.Succs(); len(ss) == 1 {
				to = ss[0].Label
			}
			tr.RecordDetail(obs.KindSplitEdge, m.Label, "", "", from+"->"+to)
		}
	}

	hot := effectiveHot(out, opt.Hot)
	var err error
	if opt.NoIncremental {
		out, err = runReference(out, opt, hot, &st)
	} else {
		out, err = runIncremental(out, opt, hot, &st)
	}
	if err != nil && !Partial(err) {
		return nil, st, err
	}

	if !opt.KeepSynthetic {
		cfg.RemoveEmptySynthetic(out)
	}
	st.FinalStmts = out.NumStmts()
	if errs := cfg.Validate(out); len(errs) > 0 {
		return nil, st, fmt.Errorf("core: %s produced invalid graph: %s", opt.Mode, errs[0])
	}
	if opt.Collector != nil {
		st.Telemetry = opt.Collector.Snapshot()
	}
	if opt.Span != nil {
		opt.Span.SetAttr("mode", opt.Mode.String())
		opt.Span.SetInt("rounds", int64(st.Rounds))
		opt.Span.SetInt("eliminated", int64(st.Eliminated))
		opt.Span.SetInt("inserted", int64(st.Inserted))
		opt.Span.SetInt("stmts_in", int64(st.OriginalStmts))
		opt.Span.SetInt("stmts_out", int64(st.FinalStmts))
	}
	return out, st, err
}

// iterate is the fixpoint loop of Section 5.1, shared by both drivers:
// eliminate, then sink, until a round changes nothing or MaxRounds cuts
// the run short. A driver supplies only its two steps; everything
// around them lives here — the watchdog and the round cap, the round
// and phase spans and trace phases, the fault-injection points, the
// Observe events, peak-size tracking and RoundCheck rollback. A step
// returns false when the watchdog abandoned its solve, leaving the
// program untouched. The returned graph is out itself, except after a
// verification rollback (the last accepted snapshot) or a watchdog
// interrupt under verification (ditto).
func iterate(out *cfg.Graph, opt Options, st *Stats, wd *watchdog, eliminate func() (ElimStats, bool), sink func() (SinkStats, bool)) (*cfg.Graph, error) {
	tr := opt.Collector.Tracer()
	elimAnalysis := "dead"
	if opt.Mode == ModeFaint {
		elimAnalysis = "faint"
	}
	rv := newRoundVerifier(opt, out)
	rs := roundSpans{parent: opt.Span}
	defer rs.endRound()
	limit := roundCap(out)
	for {
		if wd.expired() {
			return rv.best(out), wd.interrupt(st.Rounds, "round")
		}
		st.Rounds++
		wd.startRound()
		rs.beginRound(st.Rounds)
		if st.Rounds > limit {
			return nil, errNoFixpoint(opt.Mode, limit)
		}

		faultinject.Fire(faultinject.EliminatePhase, out)
		rs.beginPhase("solve.eliminate")
		tr.BeginPhase(st.Rounds, "eliminate", elimAnalysis)
		e, ok := eliminate()
		if !ok {
			return rv.best(out), wd.interrupt(st.Rounds, "eliminate")
		}
		st.Eliminated += e.Removed
		if opt.Observe != nil {
			opt.Observe(PhaseEvent{
				Round: st.Rounds, Phase: "eliminate",
				Changed: e.Changed(), Removed: e.Removed,
				Graph: out.Clone(),
			})
		}
		if wd.expired() {
			return rv.best(out), wd.interrupt(st.Rounds, "eliminate")
		}

		rs.beginPhase("solve.sink")
		tr.BeginPhase(st.Rounds, "sink", "delay")
		s, ok := sink()
		if !ok {
			return rv.best(out), wd.interrupt(st.Rounds, "sink")
		}
		st.Inserted += s.InsertedEntry + s.InsertedExit
		st.SinkRemoved += s.RemovedCandidates
		faultinject.Fire(faultinject.SinkPhase, out)
		if opt.Observe != nil {
			opt.Observe(PhaseEvent{
				Round: st.Rounds, Phase: "sink",
				Changed:  s.Changed(),
				Removed:  s.RemovedCandidates,
				Inserted: s.InsertedEntry + s.InsertedExit,
				Graph:    out.Clone(),
			})
		}
		if n := out.NumStmts(); n > st.PeakStmts {
			st.PeakStmts = n
		}

		changed := e.Changed() || s.Changed()
		if good, err := rv.verifyRound(out, st.Rounds, changed); err != nil {
			return good, err
		}
		if !changed {
			return out, nil
		}
		if opt.MaxRounds > 0 && st.Rounds >= opt.MaxRounds {
			return out, nil
		}
	}
}

// runReference runs the fixpoint loop on the from-scratch steps: each
// phase rebuilds its universes and re-solves its analysis on the
// current program. It is the semantic reference runIncremental is
// tested against, reached only through Options.NoIncremental.
func runReference(out *cfg.Graph, opt Options, hot HotPredicate, st *Stats) (*cfg.Graph, error) {
	col := opt.Collector
	tr := col.Tracer()
	eliminate := func() (ElimStats, bool) {
		if opt.Mode == ModeFaint {
			fr := analysis.FaintVarsObserve(out, out.CollectVars(), col.FaintMetrics())
			return eliminateSolved(out, fr, hot, nil, tr), true
		}
		// The reference driver's solvers live for one phase, so every
		// solve is a full one.
		dead := analysis.NewElimSolver(out, analysis.NewFootprints(out), false)
		dead.SetMetrics(col.DeadMetrics())
		return eliminateSolved(out, dead.Solve(nil), hot, nil, tr), true
	}
	sink := func() (SinkStats, bool) {
		return sinkObserved(out, hot, tr, col.DelayMetrics()), true
	}
	return iterate(out, opt, st, newWatchdog(opt), eliminate, sink)
}

// dirtySet accumulates the blocks mutated since an analysis last saw
// the program. take hands the accumulated set to a solver and swaps in
// the spare buffer, so callbacks fired after the solve append to fresh
// storage while the solver still reads the returned slice.
type dirtySet struct {
	mark  []bool
	ids   []cfg.NodeID
	spare []cfg.NodeID
}

func newDirtySet(n int) *dirtySet { return &dirtySet{mark: make([]bool, n)} }

func (d *dirtySet) add(id cfg.NodeID) {
	if !d.mark[id] {
		d.mark[id] = true
		d.ids = append(d.ids, id)
	}
}

func (d *dirtySet) take() []cfg.NodeID {
	ids := d.ids
	for _, id := range ids {
		d.mark[id] = false
	}
	d.ids = d.spare[:0]
	d.spare = ids
	return ids
}

// runIncremental runs the fixpoint loop on the round-to-round reuse
// steps. The variable and pattern universes are collected once, after
// critical-edge splitting, and kept for the whole run; both are
// supersets of every later round's universe, which is exact (see
// ElimSolver and DelaySolver for the arguments). Each phase records
// the blocks it mutates; the next solve of the elimination analysis
// (dead or faint) and of delayability re-seeds from the previous
// solution and the accumulated dirty set instead of restarting from
// Top.
func runIncremental(out *cfg.Graph, opt Options, hot HotPredicate, st *Stats) (*cfg.Graph, error) {
	fp := analysis.NewFootprints(out)
	col := opt.Collector
	tr := col.Tracer()

	wd := newWatchdog(opt)
	cancel := wd.checkFunc()

	delay := analysis.NewDelaySolver(out, fp)
	defer delay.Release()
	delay.SetCancel(cancel)
	delay.SetMetrics(col.DelayMetrics())
	delay.SetRegion(hot)
	elim := analysis.NewElimSolver(out, fp, opt.Mode == ModeFaint)
	elim.SetCancel(cancel)
	if opt.Mode == ModeFaint {
		elim.SetMetrics(col.FaintMetrics())
	} else {
		elim.SetMetrics(col.DeadMetrics())
	}

	// pendElim holds blocks changed since the elimination solver last
	// saw the program; pendSink since the delayability solver did. An
	// elimination in round r dirties the same round's sink and the
	// next round's elimination; a sink dirties both of the next
	// round's phases.
	pendElim := newDirtySet(out.NumNodes())
	pendSink := newDirtySet(out.NumNodes())
	onChange := func(n *cfg.Node, old []ir.Stmt, ops []int32) {
		// Splice the solvers' shared statement index along the rewrite
		// instead of letting it re-resolve the block against the
		// universes (sync is optional — a missed or stale sync is
		// caught by the index's slice-header validation).
		fp.SyncRewrite(n, old, ops)
		pendElim.add(n.ID)
		pendSink.add(n.ID)
	}

	eliminate := func() (ElimStats, bool) {
		res := elim.Solve(pendElim.take())
		if res.Stats.Cancelled {
			return ElimStats{}, false
		}
		return eliminateSolved(out, res, hot, onChange, tr), true
	}
	sink := func() (SinkStats, bool) {
		dres := delay.Solve(pendSink.take())
		if dres.Stats.Cancelled {
			return SinkStats{}, false
		}
		return applySink(out, fp, dres, onChange, tr), true
	}
	return iterate(out, opt, st, wd, eliminate, sink)
}

// PDE runs partial dead code elimination (sinking + dead code
// elimination) to its fixpoint.
func PDE(g *cfg.Graph) (*cfg.Graph, Stats, error) {
	return Transform(g, Options{Mode: ModeDead})
}

// PFE runs partial faint code elimination (sinking + faint code
// elimination) to its fixpoint.
func PFE(g *cfg.Graph) (*cfg.Graph, Stats, error) {
	return Transform(g, Options{Mode: ModeFaint})
}
