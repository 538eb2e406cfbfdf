package batch

import (
	"context"
	"testing"
	"time"
)

// TestRunIsolatesFailures: every job runs and reports its own class,
// whatever the others report, and results keep job order although
// later jobs finish first.
func TestRunIsolatesFailures(t *testing.T) {
	classes := []string{"", "error", "", "panic", "deadline", ""}
	results := Run(context.Background(), len(classes), 3, nil, func(i, _ int) string {
		time.Sleep(time.Duration(len(classes)-i) * time.Millisecond)
		return classes[i]
	})
	if len(results) != len(classes) {
		t.Fatalf("got %d results for %d jobs", len(results), len(classes))
	}
	for i, r := range results {
		if r.Class != classes[i] {
			t.Errorf("result %d has class %q, want %q (order must match jobs)", i, r.Class, classes[i])
		}
		if r.Worker < 0 || r.Worker > 2 || r.Duration <= 0 {
			t.Errorf("result %d: worker %d, duration %v", i, r.Worker, r.Duration)
		}
	}
}

func TestRunWorkerClamping(t *testing.T) {
	if got := Run(context.Background(), 0, 4, nil, nil); len(got) != 0 {
		t.Fatalf("Run of no jobs returned %d results", len(got))
	}
	// More workers than jobs, zero workers (GOMAXPROCS), negative.
	const n = 5
	for _, w := range []int{64, 0, -1} {
		var tk Tracker
		ran := make([]bool, n)
		Run(context.Background(), n, w, &tk, func(i, _ int) string {
			ran[i] = true
			return ""
		})
		for i, ok := range ran {
			if !ok {
				t.Errorf("workers=%d: job %d never ran", w, i)
			}
		}
		if p := tk.Snapshot(); p.Workers < 1 || p.Workers > n {
			t.Errorf("workers=%d: pool of %d", w, p.Workers)
		}
	}
}

// TestRunContextCancellation cancels a batch mid-run: two jobs are held
// in flight while the rest wait for dispatch. After cancellation the
// pool must drain — the in-flight jobs finish and report, the untouched
// jobs report Worker -1 — and Run must return a fully populated,
// in-order result slice.
func TestRunContextCancellation(t *testing.T) {
	const njobs, workers = 8, 2
	results, _ := runCancelled(t, njobs, workers)

	if len(results) != njobs {
		t.Fatalf("got %d results for %d jobs", len(results), njobs)
	}
	var inflight, untouched int
	for i, r := range results {
		switch {
		case r.Worker >= 0:
			inflight++
			if r.Class != "deadline" {
				t.Errorf("in-flight job %d has class %q", i, r.Class)
			}
		default:
			untouched++
			if r.Class != "" || r.Duration != 0 {
				t.Errorf("skipped job %d: class %q, duration %v", i, r.Class, r.Duration)
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

// runCancelled runs njobs jobs on workers workers and cancels the batch
// while the first workers jobs are held in flight; each in-flight job
// then reports class "deadline", as a run its context stopped does.
func runCancelled(t *testing.T, njobs, workers int) ([]Result, *Tracker) {
	t.Helper()
	started := make(chan struct{}, njobs)
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tk Tracker
	done := make(chan []Result, 1)
	go func() {
		done <- Run(ctx, njobs, workers, &tk, func(int, int) string {
			started <- struct{}{}
			<-release
			return "deadline"
		})
	}()
	// Both workers are now holding a job; the dispatcher is blocked
	// offering the third. Cancel, then let the in-flight jobs finish.
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	close(release)
	return <-done, &tk
}
