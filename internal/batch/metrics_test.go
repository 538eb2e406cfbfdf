package batch

import (
	"context"
	"testing"
	"time"

	"pdce/internal/obs"
)

func TestComputeMetricsAggregation(t *testing.T) {
	results := []Result{
		{Worker: 0, Duration: 10 * time.Millisecond},
		{Worker: 1, Duration: 20 * time.Millisecond, Class: "deadline"},
		{Worker: 0, Duration: 30 * time.Millisecond, Class: "queue-full"},
		{Worker: 1, Duration: 40 * time.Millisecond, Class: "panic"},
		{Worker: -1},
	}
	m := ComputeMetrics(results)
	if m.Jobs != 5 || m.Failed != 4 {
		t.Errorf("jobs/failed = %d/%d, want 5/4", m.Jobs, m.Failed)
	}
	if m.Panics != 1 || m.Interrupted != 1 || m.Skipped != 1 {
		t.Errorf("failure classes = %+v", m)
	}
	// Four jobs ran: sorted durations 10,20,30,40ms. Nearest-rank
	// p50 = 2nd (20ms), p95 = 4th (40ms).
	if m.P50NS != int64(20*time.Millisecond) || m.P95NS != int64(40*time.Millisecond) {
		t.Errorf("p50/p95 = %d/%d", m.P50NS, m.P95NS)
	}
	if m.MaxNS != int64(40*time.Millisecond) || m.TotalNS != int64(100*time.Millisecond) {
		t.Errorf("max/total = %d/%d", m.MaxNS, m.TotalNS)
	}
	if len(m.PerWorker) != 2 {
		t.Fatalf("per-worker = %+v", m.PerWorker)
	}
	if m.PerWorker[0].Jobs != 2 || m.PerWorker[0].BusyNS != int64(40*time.Millisecond) {
		t.Errorf("worker 0 = %+v", m.PerWorker[0])
	}
	if m.PerWorker[1].Jobs != 2 || m.PerWorker[1].BusyNS != int64(60*time.Millisecond) {
		t.Errorf("worker 1 = %+v", m.PerWorker[1])
	}
}

// TestNearestRank checks the rank ComputeMetrics reads p50/p95 at:
// expected 0-based indexes into a sample of size n.
func TestNearestRank(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{1, 50, 0}, {1, 95, 0},
		{4, 50, 1}, {4, 95, 3},
		{100, 50, 49}, {100, 95, 94},
	}
	for _, c := range cases {
		idx := make([]int, c.n)
		for i := range idx {
			idx[i] = i
		}
		if got := obs.NearestRank(idx, c.p); got != c.want {
			t.Errorf("obs.NearestRank(n=%d, %d) = index %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestRunObservedTracker runs a real pool against a tracker and checks
// the final snapshot and the per-result worker/duration stamps.
func TestRunObservedTracker(t *testing.T) {
	const njobs = 6
	var tk Tracker
	results := Run(context.Background(), njobs, 2, &tk, func(i, _ int) string {
		time.Sleep(time.Millisecond)
		if i == 3 {
			return "error"
		}
		return ""
	})

	p := tk.Snapshot()
	if p.Total != njobs || p.Workers != 2 || p.Started != njobs || p.Done != njobs {
		t.Errorf("progress = %+v", p)
	}
	if p.Failed != 1 || p.Skipped != 0 {
		t.Errorf("failures = %+v, want 1 failed, 0 skipped", p)
	}
	for i, r := range results {
		if r.Worker < 0 || r.Worker > 1 {
			t.Errorf("job %d ran on worker %d", i, r.Worker)
		}
		if r.Duration <= 0 {
			t.Errorf("job %d has no duration", i)
		}
	}
	m := ComputeMetrics(results)
	if m.Jobs != njobs || m.Failed != 1 || m.P50NS <= 0 || m.P95NS < m.P50NS {
		t.Errorf("metrics = %+v", m)
	}
}

// TestTrackerCancelledRun pins the skipped accounting: jobs never
// dispatched count as skipped and failed in the live snapshot and in
// the metrics.
func TestTrackerCancelledRun(t *testing.T) {
	const njobs, workers = 8, 2
	results, tk := runCancelled(t, njobs, workers)

	p := tk.Snapshot()
	if p.Skipped != njobs-workers || p.Failed != njobs {
		t.Errorf("skipped/failed = %d/%d, want %d/%d", p.Skipped, p.Failed, njobs-workers, njobs)
	}
	if p.Started != workers || p.Done != workers {
		t.Errorf("started/done = %d/%d, want %d each", p.Started, p.Done, workers)
	}
	m := ComputeMetrics(results)
	if m.Skipped != njobs-workers || m.Interrupted != workers {
		t.Errorf("metrics skipped/interrupted = %d/%d, want %d/%d", m.Skipped, m.Interrupted, njobs-workers, workers)
	}
}
