package batch

import (
	"slices"
	"sync/atomic"
	"time"

	"pdce/internal/obs"
)

// Tracker publishes live progress of one batch run. All methods are
// nil-safe (a nil tracker collects nothing) and concurrency-safe; the
// pool updates it from every worker, and the batch progress endpoint of
// cmd/pdce reads snapshots while the run is in flight. A tracker may be
// reused across runs — begin resets it.
type Tracker struct {
	p       Progress     // the counters; Snapshot adds ElapsedMS
	beganAt atomic.Int64 // unix nanoseconds
}

func (t *Tracker) begin(jobs, workers int) {
	if t == nil {
		return
	}
	t.p.Total.Store(int64(jobs))
	t.p.Workers.Store(int64(workers))
	t.p.Started.Store(0)
	t.p.Done.Store(0)
	t.p.Failed.Store(0)
	t.p.Skipped.Store(0)
	t.beganAt.Store(time.Now().UnixNano())
}

func (t *Tracker) jobStarted() {
	if t != nil {
		t.p.Started.Add(1)
	}
}

func (t *Tracker) jobDone(failed bool) {
	if t == nil {
		return
	}
	t.p.Done.Add(1)
	if failed {
		t.p.Failed.Add(1)
	}
}

func (t *Tracker) jobSkipped() {
	if t == nil {
		return
	}
	t.p.Skipped.Add(1)
	t.p.Failed.Add(1)
}

// Progress is a point-in-time view of a tracked batch run.
type Progress struct {
	// Total is the job count, Workers the pool size. Started counts
	// jobs handed to a worker, Done the finished ones (Failed of
	// those with an error), Skipped the jobs the pool never started
	// because the batch context was cancelled. ElapsedMS is the wall
	// time since the run began.
	Total     obs.Count `json:"total"`
	Workers   obs.Count `json:"workers"`
	Started   obs.Count `json:"started"`
	Done      obs.Count `json:"done"`
	Failed    obs.Count `json:"failed"`
	Skipped   obs.Count `json:"skipped"`
	ElapsedMS int64     `json:"elapsed_ms"`
}

// Snapshot freezes the tracker. Nil-safe.
func (t *Tracker) Snapshot() Progress {
	if t == nil {
		return Progress{}
	}
	p := obs.Freeze(&t.p)
	if began := t.beganAt.Load(); began > 0 {
		p.ElapsedMS = (time.Now().UnixNano() - began) / int64(time.Millisecond)
	}
	return p
}

// WorkerStats aggregates one pool worker's share of a finished run.
type WorkerStats struct {
	Jobs   int   `json:"jobs"`
	BusyNS int64 `json:"busy_ns"`
}

// Metrics aggregates a finished result set for machine consumption:
// failure classification, latency percentiles, and per-worker load.
type Metrics struct {
	Jobs   int `json:"jobs"`
	Failed int `json:"failed"`

	// Failure classes: Panics counts jobs of class "panic" (a
	// contained panic), Interrupted those of class "deadline" (a
	// watchdog or context stop, which still carry a usable program),
	// Skipped jobs the pool never started.
	Panics      int `json:"panics"`
	Interrupted int `json:"interrupted"`
	Skipped     int `json:"skipped"`

	// Latency percentiles (nearest-rank) and maximum over the jobs
	// that actually ran, plus the summed busy time.
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	MaxNS   int64 `json:"max_ns"`
	TotalNS int64 `json:"total_ns"`

	// PerWorker is indexed by worker ID.
	PerWorker []WorkerStats `json:"per_worker,omitempty"`
}

// ComputeMetrics folds a finished result slice into batch metrics.
func ComputeMetrics(results []Result) Metrics {
	m := Metrics{Jobs: len(results)}
	var durs []time.Duration
	maxWorker := -1
	for _, r := range results {
		if r.Worker > maxWorker {
			maxWorker = r.Worker
		}
	}
	if maxWorker >= 0 {
		m.PerWorker = make([]WorkerStats, maxWorker+1)
	}
	for _, r := range results {
		if r.Worker < 0 {
			m.Failed++
			m.Skipped++
			continue
		}
		if r.Class != "" {
			m.Failed++
		}
		switch r.Class {
		case "panic":
			m.Panics++
		case "deadline":
			m.Interrupted++
		}
		durs = append(durs, r.Duration)
		m.TotalNS += int64(r.Duration)
		if int64(r.Duration) > m.MaxNS {
			m.MaxNS = int64(r.Duration)
		}
		w := &m.PerWorker[r.Worker]
		w.Jobs++
		w.BusyNS += int64(r.Duration)
	}
	slices.Sort(durs)
	m.P50NS = int64(obs.NearestRank(durs, 50))
	m.P95NS = int64(obs.NearestRank(durs, 95))
	return m
}
