package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdce/internal/core"
	"pdce/internal/faultinject"
	"pdce/internal/obs"
	"pdce/internal/progen"
	"pdce/internal/verify"
)

// TestCancelMidSolveDiscardsPartial injects a stall at the solver-visit
// fault point so a context deadline expires in the middle of a
// worklist solve. The cancelled solve's partial solution must be
// discarded: the run stops with an interrupt whose surfaced graph is a
// sound phase boundary, never a program built from a half-solved
// system, and the telemetry records the cancellation. In pfe the first
// solve is the faint analysis', so its metrics must show the cancel.
func TestCancelMidSolveDiscardsPartial(t *testing.T) {
	restore := faultinject.Set(func(pt faultinject.Point, _ any) {
		if pt == faultinject.SolverVisit {
			time.Sleep(time.Millisecond)
		}
	})
	defer restore()

	g := progen.Generate(progen.Params{Seed: 5, Stmts: 240, Vars: 6})
	for _, mode := range []core.Mode{core.ModeDead, core.ModeFaint} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			col := obs.NewCollector(false)
			res, _, err := core.Transform(g, core.Options{
				Mode:      mode,
				Ctx:       ctx,
				Collector: col,
			})

			var ie *core.InterruptError
			if !errors.As(err, &ie) {
				t.Fatalf("expected an InterruptError, got %v", err)
			}
			if !core.Partial(err) {
				t.Fatalf("interrupt not classified as partial: %v", err)
			}
			if res == nil {
				t.Fatal("interrupted run surfaced no graph")
			}
			cancelled := col.DelayMetrics().Snapshot().CancelledSolves +
				col.DeadMetrics().Snapshot().CancelledSolves
			if mode == core.ModeFaint {
				cancelled = col.FaintMetrics().Snapshot().CancelledSolves
			}
			if cancelled == 0 {
				t.Errorf("no cancelled solve recorded; the stall did not interrupt a solve in flight (interrupt: %v)", err)
			}
			rep := verify.CheckTransformed(g, res, verify.Options{Seeds: 16, Fuel: 512})
			if !rep.OK() {
				t.Errorf("partial graph after a mid-solve cancel is unsound: %s", rep)
			}
		})
	}
}
