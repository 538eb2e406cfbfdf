package batch

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/faultinject"
	"pdce/internal/parser"
	"pdce/internal/progen"
)

func goodGraph(seed int64) *cfg.Graph {
	return progen.Generate(progen.Params{Seed: seed, Stmts: 40})
}

// badGraph is structurally invalid (a node unreachable from start,
// with no path to end), so core.Transform rejects it.
func badGraph() *cfg.Graph {
	g := parser.MustParseCFG(`
node a { out(1) }
edge s a
edge a e
`)
	g.AddNode("orphan")
	return g
}

func TestRunIsolatesFailures(t *testing.T) {
	jobs := []Job{
		{Name: "ok0", Graph: goodGraph(0), Options: core.Options{Mode: core.ModeDead}},
		{Name: "bad", Graph: badGraph(), Options: core.Options{Mode: core.ModeDead}},
		{Name: "ok1", Graph: goodGraph(1), Options: core.Options{Mode: core.ModeFaint}},
	}
	results := Run(context.Background(), jobs, 3, nil, nil)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []string{"ok0", "bad", "ok1"} {
		if results[i].Name != want {
			t.Errorf("result %d is %q, want %q (order must match jobs)", i, results[i].Name, want)
		}
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("good jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("invalid graph did not produce an error")
	}
	if results[1].Graph != nil {
		t.Error("failed job carries a graph")
	}

	s := Summarize(results)
	if s.Programs != 3 || s.Failed != 1 {
		t.Errorf("Summarize = %+v, want 3 programs / 1 failed", s)
	}
	if s.Rounds != results[0].Stats.Rounds+results[2].Stats.Rounds {
		t.Errorf("Summarize.Rounds = %d, want sum of successful runs", s.Rounds)
	}
}

func TestRunWorkerClamping(t *testing.T) {
	if got := Run(context.Background(), nil, 4, nil, nil); len(got) != 0 {
		t.Fatalf("Run of no jobs returned %d results", len(got))
	}
	var jobs []Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprint(i), Graph: goodGraph(int64(i)), Options: core.Options{Mode: core.ModeDead}})
	}
	// More workers than jobs, zero workers (GOMAXPROCS), negative.
	for _, w := range []int{64, 0, -1} {
		results := Run(context.Background(), jobs, w, nil, nil)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", w, i, r.Err)
			}
		}
	}
}

// TestRunJobPanicContainment injects a panic into one job and checks
// the pool survives: the panicking job reports a *core.PanicError with
// the panic value and stack, every other job completes normally.
func TestRunJobPanicContainment(t *testing.T) {
	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if p == faultinject.BatchJob && payload == "boom" {
			panic("injected job fault")
		}
	})
	defer restore()

	jobs := []Job{
		{Name: "ok0", Graph: goodGraph(0), Options: core.Options{Mode: core.ModeDead}},
		{Name: "boom", Graph: goodGraph(1), Options: core.Options{Mode: core.ModeDead}},
		{Name: "ok1", Graph: goodGraph(2), Options: core.Options{Mode: core.ModeFaint}},
	}
	results := Run(context.Background(), jobs, 3, nil, nil)
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v, %v", results[0].Err, results[2].Err)
	}
	var pe *core.PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("panicking job error = %v, want *core.PanicError", results[1].Err)
	}
	if pe.Value != "injected job fault" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if results[1].Graph != nil {
		t.Error("panicking job carries a graph")
	}
}

// TestRunContextCancellation cancels a batch mid-run: two jobs are held
// in flight by the injection hook while the rest wait for dispatch.
// After cancellation the pool must drain — the in-flight jobs wind down
// through the driver's watchdog and report partial results, the
// untouched jobs report context.Canceled — and Run must return a
// fully populated, in-order result slice.
func TestRunContextCancellation(t *testing.T) {
	const njobs = 8
	const workers = 2

	started := make(chan struct{}, njobs)
	release := make(chan struct{})
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.BatchJob {
			started <- struct{}{}
			<-release
		}
	})
	defer restore()

	jobs := make([]Job, njobs)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprint(i), Graph: goodGraph(int64(i)), Options: core.Options{Mode: core.ModeDead}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []Result, 1)
	go func() { done <- Run(ctx, jobs, workers, nil, nil) }()

	// Both workers are now holding a job inside the hook; the
	// dispatcher is blocked offering the third. Cancel, then let the
	// in-flight jobs proceed into the (already expired) watchdog.
	<-started
	<-started
	cancel()
	close(release)
	results := <-done

	if len(results) != njobs {
		t.Fatalf("got %d results for %d jobs", len(results), njobs)
	}
	var inflight, untouched int
	for i, r := range results {
		if r.Name != jobs[i].Name {
			t.Errorf("result %d is %q, want %q", i, r.Name, jobs[i].Name)
		}
		switch {
		case r.Graph != nil:
			// An in-flight job: interrupted at a phase boundary with
			// its best graph, or finished before the cancellation won
			// the race. Either way the result must be coherent.
			inflight++
			if r.Err != nil && !core.Partial(r.Err) {
				t.Errorf("job %d: graph alongside non-partial error %v", i, r.Err)
			}
		default:
			untouched++
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
			}
		}
	}
	if inflight != workers {
		t.Errorf("%d in-flight results, want %d", inflight, workers)
	}
	if untouched != njobs-workers {
		t.Errorf("%d untouched results, want %d", untouched, njobs-workers)
	}
}
