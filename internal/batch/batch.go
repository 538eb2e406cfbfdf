// Package batch runs the optimizer over many programs concurrently.
//
// Each program's fixpoint iteration is an independent, CPU-bound
// computation over its own graph clone, so the natural unit of
// parallelism is the whole optimization run: a bounded pool of workers
// (default: GOMAXPROCS) drains a job list, and results are reported in
// job order regardless of completion order. This is the engine behind
// pdce.OptimizeAll, the multi-file mode of cmd/pdce, and the batch
// throughput experiment of cmd/benchpaper.
//
// The pool is fault-isolated per job: a panic inside one optimization
// is recovered in the worker (runJob) and reported as that job's
// *core.PanicError without taking down the pool or any other job.
// Cancelling the context stops dispatch — jobs not yet started report
// the context's error, in-flight jobs are interrupted through the
// driver's watchdog and report their best phase-boundary graph — and
// Run still returns a fully-populated, in-order result slice.
package batch

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/faultinject"
)

// Job is one program to optimize.
type Job struct {
	// Name identifies the job in results and summaries.
	Name string
	// Graph is the input program; it is only read, never mutated
	// (core.Transform clones it), so the same graph may appear in
	// several jobs.
	Graph *cfg.Graph
	// Options configures the run. Function-valued fields (Hot,
	// Observe) are invoked from worker goroutines and must be safe
	// for concurrent use if shared across jobs.
	Options core.Options
}

// Result is the outcome of one job. Results preserve job order.
type Result struct {
	Name  string
	Graph *cfg.Graph // nil when Err is non-nil, except partial results
	Stats core.Stats
	Err   error

	// Duration is the job's wall-clock optimization time; Worker is
	// the 0-based index of the pool worker that ran it, -1 for jobs
	// the pool never started (batch context cancelled first).
	Duration time.Duration
	Worker   int
}

// Gate is an admission controller consulted per job. The serving layer
// passes its global admission here so a batch request cannot
// monopolize capacity past the server-wide concurrency budget: each
// pool worker acquires a slot before running a job and releases it
// after. Acquire blocks until a slot is free, the queue rejects the
// caller, or ctx is done; a non-nil error skips the job (it is
// reported as that job's Result.Err with Worker -1, like a job the
// pool never started). Implementations must be safe for concurrent
// use from every pool worker.
type Gate interface {
	Acquire(ctx context.Context) error
	Release()
}

// Run optimizes every job using at most workers concurrent
// optimizations. workers <= 0 selects GOMAXPROCS; the pool never
// exceeds the number of jobs. The returned slice is indexed like jobs.
//
// ctx bounds the whole batch: once it is cancelled no further job is
// started — skipped jobs report ctx.Err() — and it is forwarded to
// every job whose options carry no context of their own, so in-flight
// runs wind down through the driver's watchdog (their results carry an
// *core.InterruptError plus the best graph reached). Run always drains
// the pool before returning; no worker outlives the call.
//
// tk, when non-nil, is updated as jobs start and finish — the feed
// behind the batch progress endpoint of cmd/pdce; a nil tracker
// collects nothing. gate, when non-nil, admits each job (see Gate); a
// nil gate admits everything.
func Run(ctx context.Context, jobs []Job, workers int, tk *Tracker, gate Gate) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	tk.begin(len(jobs), workers)

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
					results[i] = Result{Name: jobs[i].Name, Err: ctx.Err(), Worker: -1}
					tk.jobSkipped()
					continue
				}
				if gate != nil {
					if err := gate.Acquire(ctx); err != nil {
						results[i] = Result{Name: jobs[i].Name, Err: err, Worker: -1}
						tk.jobSkipped()
						continue
					}
				}
				tk.jobStarted()
				results[i] = runJob(ctx, jobs[i], worker)
				if gate != nil {
					gate.Release()
				}
				tk.jobDone(results[i].Err != nil)
			}
		}(w)
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark this and every remaining job untouched; the
			// workers drain naturally once the channel closes.
			for j := i; j < len(jobs); j++ {
				results[j] = Result{Name: jobs[j].Name, Err: ctx.Err(), Worker: -1}
				tk.jobSkipped()
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// runJob executes one job with panic containment: a panic anywhere in
// the run — including the fault-injection point, which fires inside
// the contained region so an injected panic takes the same recovery
// path a real one would — becomes that job's *core.PanicError.
func runJob(ctx context.Context, j Job, worker int) (res Result) {
	res.Name = j.Name
	res.Worker = worker
	start := time.Now()
	defer func() {
		res.Duration = time.Since(start)
		if v := recover(); v != nil {
			res.Graph, res.Err = nil, &core.PanicError{Value: v, Stack: debug.Stack()}
		}
		// The job's tracing span (if any) is owned by this worker: end
		// it here so panic and interrupt paths record an error class
		// and a duration like any other outcome.
		if sp := j.Options.Span; sp != nil {
			sp.SetInt("worker", int64(worker))
			if res.Err != nil {
				sp.SetError(core.ErrorClass(res.Err))
			}
			sp.End()
		}
	}()
	if j.Options.Ctx == nil {
		j.Options.Ctx = ctx
	}
	faultinject.Fire(faultinject.BatchJob, j.Name)
	res.Graph, res.Stats, res.Err = core.Transform(j.Graph, j.Options)
	return res
}

// Summary aggregates a result set.
type Summary struct {
	Programs, Failed int

	// Totals over the successful runs.
	Rounds, Eliminated, Inserted, SinkRemoved int
	OriginalStmts, FinalStmts                 int
}

// Summarize folds a result slice into per-batch totals.
func Summarize(results []Result) Summary {
	var s Summary
	s.Programs = len(results)
	for _, r := range results {
		if r.Err != nil {
			s.Failed++
			continue
		}
		s.Rounds += r.Stats.Rounds
		s.Eliminated += r.Stats.Eliminated
		s.Inserted += r.Stats.Inserted
		s.SinkRemoved += r.Stats.SinkRemoved
		s.OriginalStmts += r.Stats.OriginalStmts
		s.FinalStmts += r.Stats.FinalStmts
	}
	return s
}
