package batch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"pdce/internal/core"
)

// countingGate admits everything while tracking the concurrent-holder
// peak; it is the Run contract check that every admitted job
// pairs Acquire with exactly one Release.
type countingGate struct {
	mu      sync.Mutex
	cur     int
	peak    int
	acquire atomic.Int64
	release atomic.Int64
}

func (g *countingGate) Acquire(context.Context) error {
	g.acquire.Add(1)
	g.mu.Lock()
	g.cur++
	if g.cur > g.peak {
		g.peak = g.cur
	}
	g.mu.Unlock()
	return nil
}

func (g *countingGate) Release() {
	g.release.Add(1)
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
}

// rejectAfterGate admits n jobs, then rejects everything.
type rejectAfterGate struct {
	admitted atomic.Int64
	limit    int64
	err      error
}

func (g *rejectAfterGate) Acquire(context.Context) error {
	if g.admitted.Add(1) > g.limit {
		return g.err
	}
	return nil
}

func (g *rejectAfterGate) Release() {}

func TestRunGatedPairsAcquireRelease(t *testing.T) {
	const n = 12
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: "j", Graph: goodGraph(int64(i)), Options: core.Options{Mode: core.ModeDead}}
	}
	g := &countingGate{}
	results := Run(context.Background(), jobs, 4, nil, g)
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
	}
	if g.acquire.Load() != n || g.release.Load() != n {
		t.Errorf("acquire/release %d/%d, want %d/%d", g.acquire.Load(), g.release.Load(), n, n)
	}
	if g.peak > 4 {
		t.Errorf("gate saw %d concurrent holders with 4 workers", g.peak)
	}
}

func TestRunGatedRejectionSkipsJob(t *testing.T) {
	errShed := errors.New("shed")
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Name: "j", Graph: goodGraph(int64(i)), Options: core.Options{Mode: core.ModeDead}}
	}
	g := &rejectAfterGate{limit: 2, err: errShed}
	// Single worker: jobs run in order, so exactly jobs 0-1 succeed.
	results := Run(context.Background(), jobs, 1, nil, g)
	for i, r := range results {
		if i < 2 {
			if r.Err != nil {
				t.Errorf("admitted job %d failed: %v", i, r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, errShed) {
			t.Errorf("rejected job %d: err %v", i, r.Err)
		}
		if r.Worker != -1 {
			t.Errorf("rejected job %d ran on worker %d", i, r.Worker)
		}
		if r.Graph != nil {
			t.Errorf("rejected job %d carries a graph", i)
		}
	}
	// Shed jobs are visible to the tracker as skips, not starts.
	tk := &Tracker{}
	Run(context.Background(), jobs, 1, tk, &rejectAfterGate{limit: 0, err: errShed})
	p := tk.Snapshot()
	if int64(p.Skipped) != int64(len(jobs)) || p.Started != 0 || int64(p.Failed) != int64(len(jobs)) {
		t.Errorf("tracker after full shed: %+v", p)
	}
}
