package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pdce/internal/cfg"
)

// This file is the driver's fault-containment layer: the fixpoint
// watchdog (wall-clock deadline via Options.Ctx plus a per-round budget
// via Options.RoundBudget) and round-boundary verification rollback
// (Options.RoundCheck). The guiding invariant is that the working graph
// is a semantically valid, correctly transformed program at every
// phase boundary — each eliminate or sink step is a complete admissible
// transformation — so stopping between phases and returning the
// current graph degrades the result's optimality, never its
// correctness.

// ErrRoundBudget is the cause recorded by an InterruptError when the
// per-round budget (Options.RoundBudget), rather than the context,
// expired.
var ErrRoundBudget = errors.New("core: round budget exhausted")

// InterruptError reports that the watchdog stopped the fixpoint
// iteration. The graph returned alongside it is the best
// phase-boundary program reached — valid and correct, possibly short
// of the optimum.
type InterruptError struct {
	// Rounds is the number of rounds entered when the run stopped.
	Rounds int
	// Phase names the iteration point that observed the expiry:
	// "round" (between rounds), "eliminate" or "sink" (the analysis
	// that was abandoned mid-solve or the boundary after it).
	Phase string
	// Cause is the context's error or ErrRoundBudget.
	Cause error
}

func (e *InterruptError) Error() string {
	return fmt.Sprintf("core: interrupted at %s after %d rounds: %v", e.Phase, e.Rounds, e.Cause)
}

func (e *InterruptError) Unwrap() error { return e.Cause }

// RoundCheckError reports that Options.RoundCheck rejected a round's
// result. The graph returned alongside it is the last one the check
// accepted (the input program when the very first round failed).
type RoundCheckError struct {
	// Round is the round whose result failed; GoodRound the round
	// rolled back to (0 = the untransformed input).
	Round, GoodRound int
	// Err is the checker's verdict.
	Err error
}

func (e *RoundCheckError) Error() string {
	return fmt.Sprintf("core: round %d failed verification (rolled back to round %d): %v",
		e.Round, e.GoodRound, e.Err)
}

func (e *RoundCheckError) Unwrap() error { return e.Err }

// Partial reports whether err still came with a usable program:
// watchdog interrupts return the best phase-boundary graph, round
// check failures the last verified one. Transform returns a non-nil
// graph exactly for these errors.
func Partial(err error) bool {
	var ie *InterruptError
	var re *RoundCheckError
	return errors.As(err, &ie) || errors.As(err, &re)
}

// watchdog tracks the two expiry conditions of a run: the caller's
// context (wall-clock deadline or cancellation) and the per-round
// budget. A nil *watchdog is inert, so unconfigured runs pay nothing.
type watchdog struct {
	ctx        context.Context
	budget     time.Duration
	roundStart time.Time
}

func newWatchdog(opt Options) *watchdog {
	if opt.Ctx == nil && opt.RoundBudget <= 0 {
		return nil
	}
	w := &watchdog{ctx: opt.Ctx, budget: opt.RoundBudget}
	w.startRound()
	return w
}

func (w *watchdog) startRound() {
	if w != nil && w.budget > 0 {
		w.roundStart = time.Now()
	}
}

func (w *watchdog) expired() bool {
	if w == nil {
		return false
	}
	if w.ctx != nil && w.ctx.Err() != nil {
		return true
	}
	return w.budget > 0 && time.Since(w.roundStart) > w.budget
}

// checkFunc adapts the watchdog to the solvers' cancellation hook; nil
// when no watchdog is configured, so solvers skip the checks entirely.
func (w *watchdog) checkFunc() func() bool {
	if w == nil {
		return nil
	}
	return w.expired
}

func (w *watchdog) cause() error {
	if w.ctx != nil && w.ctx.Err() != nil {
		return w.ctx.Err()
	}
	return ErrRoundBudget
}

// interrupt builds the InterruptError for the current stop point.
func (w *watchdog) interrupt(rounds int, phase string) error {
	return &InterruptError{Rounds: rounds, Phase: phase, Cause: w.cause()}
}

// roundVerifier carries the rollback state of Options.RoundCheck
// across rounds. A nil *roundVerifier is inert.
type roundVerifier struct {
	check     func(g *cfg.Graph, round int) error
	lastGood  *cfg.Graph
	goodRound int
}

func newRoundVerifier(opt Options, out *cfg.Graph) *roundVerifier {
	if opt.RoundCheck == nil {
		return nil
	}
	// Round 0 — the split but untransformed input — is trivially
	// semantics-preserving, so it is the initial rollback target.
	return &roundVerifier{check: opt.RoundCheck, lastGood: out.Clone()}
}

// verifyRound checks the round's result. On acceptance it advances the
// rollback snapshot (only when the round changed something — a
// no-change round is byte-identical to the previous snapshot) and
// returns (nil, nil). On rejection it returns the last good graph and
// the wrapped error.
func (v *roundVerifier) verifyRound(out *cfg.Graph, round int, changed bool) (*cfg.Graph, error) {
	if v == nil {
		return nil, nil
	}
	if err := v.check(out, round); err != nil {
		return v.lastGood, &RoundCheckError{Round: round, GoodRound: v.goodRound, Err: err}
	}
	if changed {
		v.lastGood = out.Clone()
		v.goodRound = round
	}
	return nil, nil
}

// best returns the graph a watchdog interrupt should surface: with
// verification active only verified snapshots qualify; otherwise the
// current phase-boundary graph is already the best correct result.
func (v *roundVerifier) best(out *cfg.Graph) *cfg.Graph {
	if v == nil {
		return out
	}
	return v.lastGood
}
