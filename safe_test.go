package pdce_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/faultinject"
	"pdce/internal/ir"
)

// The tests in this file exercise the fault-containment layer end to
// end through injected faults: panics, stalls, and miscompiles at the
// optimizer's phase boundaries (internal/faultinject). The injection
// hook is process-global, so none of them run in parallel.

const containSrc = `
y := a + b
if * {
    y := c
}
out(x + y)
`

func mustParse(t *testing.T, name, src string) *pdce.Program {
	t.Helper()
	p, err := pdce.ParseSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseErrorTaxonomy(t *testing.T) {
	_, err := pdce.ParseCFG("graph \"g\"\nnode 1 { y := }\n")
	if err == nil {
		t.Fatal("invalid program parsed")
	}
	if !errors.Is(err, pdce.ErrParse) {
		t.Errorf("parse failure does not match ErrParse: %v", err)
	}
	var pe *pdce.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("parse failure is not a *ParseError: %T", err)
	}
	if pe.Name != "cfg input" || pe.Err == nil {
		t.Errorf("ParseError incomplete: %+v", pe)
	}

	if _, err := pdce.ParseSource("broken.while", "while { }"); !errors.Is(err, pdce.ErrParse) {
		t.Errorf("ParseSource failure does not match ErrParse: %v", err)
	}
}

// TestSafeOptimizePanicContainment injects a panic into the eliminate
// phase and checks the full degradation contract: the input program
// comes back unchanged, the error is a *PanicError carrying the panic
// value and stack, and the repro bundle written to ReproDir is itself a
// parseable copy of the input.
func TestSafeOptimizePanicContainment(t *testing.T) {
	restore := faultinject.Set(func(pt faultinject.Point, _ any) {
		if pt == faultinject.EliminatePhase {
			panic("injected eliminate fault")
		}
	})
	defer restore()

	p := mustParse(t, "panic.while", containSrc)
	dir := t.TempDir()
	res, st, err := p.SafeOptimize(pdce.Options{Mode: pdce.Dead, ReproDir: dir})

	if res == nil {
		t.Fatal("SafeOptimize returned nil program")
	}
	if res.Format() != p.Format() {
		t.Error("panicked run did not return the input unchanged")
	}
	if st != (pdce.Stats{}) {
		t.Errorf("panicked run reported stats: %+v", st)
	}
	if !errors.Is(err, pdce.ErrPanic) {
		t.Fatalf("error does not match ErrPanic: %v", err)
	}
	var pe *pdce.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PanicError: %T", err)
	}
	if pe.Value != "injected eliminate fault" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if !strings.Contains(pe.Stack, "faultinject") {
		t.Errorf("stack does not show the panic site:\n%s", pe.Stack)
	}
	if pe.BundleErr != nil {
		t.Fatalf("bundle write failed: %v", pe.BundleErr)
	}
	if filepath.Dir(pe.Bundle) != dir {
		t.Fatalf("bundle %q not in repro dir %q", pe.Bundle, dir)
	}
	raw, err := os.ReadFile(pe.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "injected eliminate fault") {
		t.Error("bundle does not record the panic value")
	}
	replay, err := pdce.ParseCFG(string(raw))
	if err != nil {
		t.Fatalf("repro bundle does not parse: %v", err)
	}
	if replay.Format() != p.Format() {
		t.Error("repro bundle program differs from the input")
	}
}

// TestSafeOptimizeWithoutReproDir checks panic containment works with
// bundle capture disabled.
func TestSafeOptimizeWithoutReproDir(t *testing.T) {
	restore := faultinject.Set(func(pt faultinject.Point, _ any) {
		if pt == faultinject.SinkPhase {
			panic("injected sink fault")
		}
	})
	defer restore()

	p := mustParse(t, "nodir.while", containSrc)
	res, _, err := p.SafeOptimize(pdce.Options{Mode: pdce.Faint})
	if res == nil || res.Format() != p.Format() {
		t.Error("panicked run did not return the input unchanged")
	}
	var pe *pdce.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PanicError: %v", err)
	}
	if pe.Bundle != "" || pe.BundleErr != nil {
		t.Errorf("bundle recorded without a repro dir: %q %v", pe.Bundle, pe.BundleErr)
	}
}

// stallHook slows every solver node visit enough that any watchdog
// bound in the tens of milliseconds expires mid-analysis.
func stallHook() func() {
	return faultinject.Set(func(pt faultinject.Point, _ any) {
		if pt == faultinject.SolverVisit {
			time.Sleep(time.Millisecond)
		}
	})
}

// TestSafeOptimizeContextDeadline injects a solver stall and bounds the
// run with a context deadline: the result must be a correct
// phase-boundary program plus a *DeadlineError caused by the context.
func TestSafeOptimizeContextDeadline(t *testing.T) {
	restore := stallHook()
	defer restore()

	p := pdce.Generate(pdce.GenParams{Seed: 7, Stmts: 240, Vars: 6})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, _, err := p.SafeOptimize(pdce.Options{Mode: pdce.Dead, Context: ctx})

	if res == nil {
		t.Fatal("SafeOptimize returned nil program")
	}
	if !errors.Is(err, pdce.ErrDeadline) {
		t.Fatalf("stalled run did not report ErrDeadline: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause is not the context deadline: %v", err)
	}
	var de *pdce.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error is not a *DeadlineError: %T", err)
	}
	if de.Phase == "" {
		t.Errorf("DeadlineError has no phase: %+v", de)
	}
	if issues := cfg.Validate(res.Graph()); len(issues) > 0 {
		t.Fatalf("partial result is invalid: %v", issues)
	}
	if err := p.Check(res, 48); err != nil {
		t.Errorf("partial result is not a correct transformation: %v", err)
	}
}

// TestSafeOptimizeRoundBudget exercises the second watchdog condition:
// no context, but a per-round budget that the stalled solver blows.
func TestSafeOptimizeRoundBudget(t *testing.T) {
	restore := stallHook()
	defer restore()

	p := pdce.Generate(pdce.GenParams{Seed: 11, Stmts: 240, Vars: 6})
	res, _, err := p.SafeOptimize(pdce.Options{Mode: pdce.Dead, RoundBudget: 25 * time.Millisecond})

	if res == nil {
		t.Fatal("SafeOptimize returned nil program")
	}
	if !errors.Is(err, pdce.ErrDeadline) {
		t.Fatalf("stalled run did not report ErrDeadline: %v", err)
	}
	if !errors.Is(err, core.ErrRoundBudget) {
		t.Errorf("cause is not the round budget: %v", err)
	}
	if err := p.Check(res, 48); err != nil {
		t.Errorf("partial result is not a correct transformation: %v", err)
	}
}

// TestVerifiedModeMiscompileRollback corrupts the graph after the sink
// phase (replacing an out statement with skip — an observable change)
// and checks that verified mode catches it, rolls back to the last
// verified snapshot, and reports a *MiscompileError.
func TestVerifiedModeMiscompileRollback(t *testing.T) {
	corrupted := false
	restore := faultinject.Set(func(pt faultinject.Point, payload any) {
		if pt != faultinject.SinkPhase || corrupted {
			return
		}
		g := payload.(*cfg.Graph)
		for _, n := range g.Nodes() {
			for i, s := range n.Stmts {
				if _, ok := s.(ir.Out); ok {
					n.Stmts[i] = ir.Skip{}
					corrupted = true
					return
				}
			}
		}
	})
	defer restore()

	p := mustParse(t, "miscompile.while", containSrc)
	res, _, err := p.SafeOptimize(pdce.Options{Mode: pdce.Dead, Verify: true})

	if !corrupted {
		t.Fatal("fault injection never fired")
	}
	if res == nil {
		t.Fatal("SafeOptimize returned nil program")
	}
	if !errors.Is(err, pdce.ErrMiscompile) {
		t.Fatalf("miscompiled run did not report ErrMiscompile: %v", err)
	}
	var me *pdce.MiscompileError
	if !errors.As(err, &me) {
		t.Fatalf("error is not a *MiscompileError: %T", err)
	}
	if me.Round < 1 || me.GoodRound != 0 {
		t.Errorf("unexpected rollback rounds: %+v", me)
	}
	if me.Report == "" {
		t.Error("MiscompileError carries no oracle report")
	}
	// The rolled-back program is the round-0 snapshot: semantically the
	// input, with the miscompiled sink round discarded.
	if err := p.Check(res, 48); err != nil {
		t.Errorf("rolled-back result is not semantics-preserving: %v", err)
	}
}

// TestVerifiedModeCleanRun checks verified mode is invisible on healthy
// runs: same result as plain optimization, no error.
func TestVerifiedModeCleanRun(t *testing.T) {
	p := pdce.Generate(pdce.GenParams{Seed: 3, Stmts: 60, Vars: 5})
	plain, _, err := p.Optimize(pdce.Options{Mode: pdce.Faint})
	if err != nil {
		t.Fatal(err)
	}
	verified, _, err := p.SafeOptimize(pdce.Options{Mode: pdce.Faint, Verify: true, VerifyRuns: 16})
	if err != nil {
		t.Fatalf("verified clean run reported: %v", err)
	}
	if verified.Format() != plain.Format() {
		t.Error("verified mode changed the optimization result")
	}
}

// TestOptimizeAllPanicContainment checks the batch path: one job
// panics, the pool survives, the job degrades to its unchanged input
// with a repro bundle, and every other job is optimized normally.
func TestOptimizeAllPanicContainment(t *testing.T) {
	progs := batchPrograms(6)
	victim := progs[2].Name()
	restore := faultinject.Set(func(pt faultinject.Point, payload any) {
		if g, ok := payload.(*cfg.Graph); ok && pt == faultinject.EliminatePhase && g.Name == victim {
			panic("injected batch fault")
		}
	})
	defer restore()

	dir := t.TempDir()
	results := pdce.OptimizeAll(progs, pdce.Options{Mode: pdce.Dead, ReproDir: dir}, 4)
	for i, r := range results {
		if i == 2 {
			if !errors.Is(r.Err, pdce.ErrPanic) {
				t.Fatalf("victim job error = %v", r.Err)
			}
			if r.Program == nil || r.Program.Format() != progs[i].Format() {
				t.Error("victim job did not degrade to its unchanged input")
			}
			var pe *pdce.PanicError
			if !errors.As(r.Err, &pe) || pe.Bundle == "" {
				t.Fatalf("victim job has no repro bundle: %v", r.Err)
			}
			if _, err := os.Stat(pe.Bundle); err != nil {
				t.Errorf("repro bundle missing: %v", err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
		}
	}
}

// TestOptimizeAllCancellation cancels a batch up front: every job must
// report promptly, with context errors for the untouched ones.
func TestOptimizeAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	progs := batchPrograms(5)
	results := pdce.OptimizeAll(progs, pdce.Options{Mode: pdce.Dead, Context: ctx}, 2)
	if len(results) != len(progs) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("job %d of a cancelled batch reported success", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

// FuzzSafeOptimize is the containment smoke oracle: whatever the input
// and options, SafeOptimize must not panic, must return a non-nil
// program, and that program must be a structurally valid graph; on
// clean runs it must also preserve semantics.
func FuzzSafeOptimize(f *testing.F) {
	seed1, err := pdce.ParseSource("seed1", containSrc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed1.Format(), uint8(0))
	f.Add(pdce.Generate(pdce.GenParams{Seed: 1, Stmts: 40, Vars: 4}).Format(), uint8(1))
	f.Add(pdce.Generate(pdce.GenParams{Seed: 2, Stmts: 30, Vars: 3, Irreducible: true}).Format(), uint8(9))
	f.Add("graph \"g\"\nnode a { out(x) }\nedge s a\nedge a e\n", uint8(17))
	f.Add("node 1 { y := }", uint8(0))

	f.Fuzz(func(t *testing.T, src string, knobs uint8) {
		p, err := pdce.ParseCFG(src)
		if err != nil {
			if !errors.Is(err, pdce.ErrParse) {
				t.Fatalf("parse failure outside the taxonomy: %v", err)
			}
			return
		}
		o := pdce.Options{Mode: pdce.Dead}
		if knobs&1 != 0 {
			o.Mode = pdce.Faint
		}
		o.MaxRounds = int(knobs>>1) & 3
		if knobs&8 != 0 {
			o.Verify = true
			o.VerifyRuns = 4
		}
		if knobs&16 != 0 {
			// An all-accepting hot region drives the
			// region-restricted steps over the whole program.
			o.Hot = func(string) bool { return true }
		}
		res, _, err := p.SafeOptimize(o)
		if res == nil {
			t.Fatal("SafeOptimize returned nil program")
		}
		if issues := cfg.Validate(res.Graph()); len(issues) > 0 {
			t.Fatalf("SafeOptimize returned an invalid graph: %v", issues)
		}
		if err == nil {
			if cerr := p.Check(res, 8); cerr != nil {
				t.Fatalf("clean run broke semantics: %v", cerr)
			}
		}
	})
}
