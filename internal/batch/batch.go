// Package batch runs a batch of independent jobs on a bounded pool of
// workers.
//
// Each program's optimization is an independent, CPU-bound run over
// its own graph clone, so the natural unit of parallelism is the whole
// run: a bounded pool of workers (default: GOMAXPROCS) drains a job
// list, and results are reported in job order regardless of completion
// order. This is the pool behind pdce.OptimizeAll, the multi-file mode
// of cmd/pdce, and pdced's /optimize/batch.
//
// A job is a function of its index; the caller keeps its outcome and
// its containment (pdce.SafeOptimize) and reports its failure class.
// Cancelling the context stops dispatch — jobs not yet started are
// marked skipped — and Run still returns a fully-populated, in-order
// result slice.
package batch

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Result is the pool's record of one job. Results preserve job order.
type Result struct {
	// Class is the job's failure class in pdce.ErrorKind's words
	// ("deadline", "miscompile", "panic", "error"), or one the caller
	// names for a failure of its own; "" is success.
	Class string

	// Duration is the job's wall time; Worker is the 0-based index of
	// the pool worker that ran it, -1 for a job the pool never started
	// (the batch context ended first).
	Duration time.Duration
	Worker   int
}

// Run calls job(i, worker) for every i in [0, n) using at most workers
// concurrent calls, and returns the results indexed like the jobs.
// workers <= 0 selects GOMAXPROCS; the pool never exceeds n. job
// returns its failure class ("" for success) and must be safe to call
// from several goroutines at once.
//
// Once ctx is done no further job is started; the skipped jobs report
// Worker -1. Run always drains the pool before returning; no worker
// outlives the call.
//
// tk, when non-nil, is updated as jobs start and finish — the feed
// behind the batch progress endpoint of cmd/pdce; a nil tracker
// collects nothing.
func Run(ctx context.Context, n, workers int, tk *Tracker, job func(i, worker int) (class string)) []Result {
	results := make([]Result, n)
	if n == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	tk.begin(n, workers)

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				// The dispatcher's select may hand out a job after
				// cancellation (both of its cases are ready when a
				// worker is free); such a job was never started.
				if ctx.Err() != nil {
					results[i].Worker = -1
					tk.jobSkipped()
					continue
				}
				tk.jobStarted()
				start := time.Now()
				class := job(i, worker)
				results[i] = Result{Class: class, Duration: time.Since(start), Worker: worker}
				tk.jobDone(class != "")
			}
		}(w)
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark this and every remaining job untouched; the
			// workers drain naturally once the channel closes.
			for j := i; j < n; j++ {
				results[j].Worker = -1
				tk.jobSkipped()
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results
}
