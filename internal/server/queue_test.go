package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/server"
)

// queueConfig is a small, fast queue setup over a temp WAL directory.
func queueConfig(t *testing.T) server.Config {
	t.Helper()
	return server.Config{
		QueueDir:     t.TempDir(),
		QueueBackoff: time.Millisecond,
	}
}

// TestSubmitPollAck is the async happy path: submit answers 202 with a
// durable job, polling reaches done, the result is byte-identical to
// the synchronous endpoint's, and acking releases the job while its
// result stays reachable through the cache.
func TestSubmitPollAck(t *testing.T) {
	cfg := queueConfig(t)
	s, ts, c := startServer(t, cfg)
	defer s.Drain(context.Background())

	sub, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Cached || sub.Duplicate {
		t.Fatalf("fresh submit receipt %+v", sub)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Poll(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobDone {
		t.Fatalf("job state %q error %q, want done", res.State, res.Error)
	}

	// Byte-identity with the synchronous path: /optimize of the same
	// program must serve the cached bytes the job produced.
	status, body, cacheState := rawOptimize(t, ts.URL, "name=demo", demoSource)
	if status != http.StatusOK {
		t.Fatalf("sync optimize: %d %s", status, body)
	}
	if cacheState != string(pdce.CacheHit) {
		t.Fatalf("sync optimize after async job: cache %q, want hit", cacheState)
	}
	if string(res.Result) != string(body) {
		t.Fatalf("async result and sync response differ:\n%s\nvs\n%s", res.Result, body)
	}

	// Ack: the job leaves the queue table...
	if _, err := c.Result(context.Background(), sub.ID, true); err != nil {
		t.Fatal(err)
	}
	snap := s.Queue().Snapshot()
	if snap.Done != 0 || snap.Acks != 1 {
		t.Fatalf("post-ack snapshot %+v, want done=0 acks=1", snap)
	}
	// ...but its result is still served, via the cache fallback.
	res2, err := c.Result(context.Background(), sub.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != pdce.JobDone || string(res2.Result) != string(body) {
		t.Fatalf("post-ack result %+v, want cached done bytes", res2.State)
	}
}

// TestSubmitDeadline: deadline_ms bounds an async job as it bounds a
// synchronous request. Under a solver stall the job still ends done,
// with a degraded body whose error kind is deadline.
func TestSubmitDeadline(t *testing.T) {
	s, _, c := startServer(t, queueConfig(t))
	defer s.Drain(context.Background())
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			time.Sleep(3 * time.Millisecond)
		}
	})
	defer restore()

	sub, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Poll(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobDone {
		t.Fatalf("job state %q error %q, want done", res.State, res.Error)
	}
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(res.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.ErrorKind != "deadline" {
		t.Fatalf("expected a degraded deadline result, got degraded=%v error_kind=%q", resp.Degraded, resp.ErrorKind)
	}
}

// TestSubmitDeduplication: duplicate submissions collapse onto the
// existing job by content address, and a submission whose result is
// already cached short-circuits to done without queueing anything.
func TestSubmitDeduplication(t *testing.T) {
	cfg := queueConfig(t)
	s, ts, c := startServer(t, cfg)
	defer s.Drain(context.Background())

	sub1, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.ID != sub1.ID {
		t.Fatalf("duplicate submit got id %q, want %q", sub2.ID, sub1.ID)
	}
	if !sub2.Duplicate && !sub2.Cached {
		// The job may have finished between the submits, in which case
		// the resubmission legitimately reports the cached result.
		t.Fatalf("duplicate submit receipt %+v, want Duplicate or Cached", sub2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Poll(ctx, sub1.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Now the result is cached: a third submit answers done immediately.
	sub3, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sub3.Cached || sub3.State != pdce.JobDone {
		t.Fatalf("post-completion submit receipt %+v, want cached done", sub3)
	}
	_ = ts
}

// TestQueueDisabled: without a queue directory the async endpoints
// answer 503 with a distinct kind, so callers can tell "disabled" from
// "draining".
func TestQueueDisabled(t *testing.T) {
	s, ts, c := startServer(t, server.Config{})
	defer s.Drain(context.Background())

	if _, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{}); err == nil {
		t.Fatal("submit on queue-less server succeeded")
	} else if se := new(pdce.ServerError); !asServerError(err, &se) || se.Status != http.StatusServiceUnavailable || se.Kind != "queue-disabled" {
		t.Fatalf("submit error %v, want 503 queue-disabled", err)
	}
	resp, err := http.Get(ts.URL + "/optimize/result/abc")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("result on queue-less server: %d, want 503", resp.StatusCode)
	}
}

func asServerError(err error, se **pdce.ServerError) bool {
	s, ok := err.(*pdce.ServerError)
	if ok {
		*se = s
	}
	return ok
}

// TestQueueRetryAndPoison: a job whose every attempt dies in a
// contained optimizer panic retries with backoff and is poisoned after
// the budget — parked in the failed state, surviving restarts, never
// retried again.
func TestQueueRetryAndPoison(t *testing.T) {
	cfg := queueConfig(t)
	cfg.QueueRetries = 2
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.EliminatePhase {
			panic("injected: optimizer bug")
		}
	})
	defer restore()

	s, _, c := startServer(t, cfg)
	sub, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Poll(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobFailed || res.Attempts != 2 {
		t.Fatalf("poisoned job %+v, want failed after 2 attempts", res)
	}
	if !strings.Contains(res.Error, "injected") {
		t.Fatalf("poisoned job error %q does not carry the cause", res.Error)
	}
	if got := s.Queue().Snapshot().Poisoned; got != 1 {
		t.Fatalf("poisoned counter %d, want 1", got)
	}
	snap := s.Queue().Snapshot()
	if snap.Retries != 1 || snap.Failed != 1 {
		t.Fatalf("snapshot %+v, want 1 retry and 1 failed job", snap)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Poison survives restart: the replayed job is still failed, not
	// re-run (the hook is gone — a re-run would succeed and mask the
	// bug).
	s2, _, c2 := startServer(t, cfg)
	defer s2.Drain(context.Background())
	res2, err := c2.Result(context.Background(), sub.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != pdce.JobFailed || res2.Attempts != 2 {
		t.Fatalf("replayed poisoned job %+v, want failed after 2 attempts", res2)
	}
}

// TestQueueFsyncFailureRejectsSubmission: when the submit record cannot
// be made durable the submission must be refused — never acknowledged
// volatile — and a retry after the disk recovers starts clean.
func TestQueueFsyncFailureRejectsSubmission(t *testing.T) {
	cfg := queueConfig(t)
	s, _, c := startServer(t, cfg)
	defer s.Drain(context.Background())

	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if p == faultinject.QueueFsync {
			*payload.(*error) = io.ErrShortWrite
		}
	})
	_, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	restore()
	if err == nil {
		t.Fatal("submit with failing fsync succeeded")
	}
	var se *pdce.ServerError
	if !asServerError(err, &se) || se.Status != http.StatusInternalServerError || se.Kind != "queue" {
		t.Fatalf("submit error %v, want 500 queue", err)
	}
	if snap := s.Queue().Snapshot(); snap.FsyncFailures != 1 || snap.Submits != 0 || snap.Depth != 0 {
		t.Fatalf("post-failure snapshot %+v, want the job never admitted", snap)
	}

	// Disk recovered: the same submission is accepted fresh, not as a
	// duplicate of a ghost.
	sub, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Duplicate {
		t.Fatalf("retried submit reported duplicate: %+v", sub)
	}
}

// TestQueueCrashRecovery: jobs whose submissions were acknowledged
// survive a crash (kill + WAL truncated to its synced prefix) and
// complete after restart with the same bytes the synchronous path
// computes.
func TestQueueCrashRecovery(t *testing.T) {
	cfg := queueConfig(t)
	cfg.QueueWorkers = 1

	// Stall the optimizer so the jobs are still unfinished at the kill.
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			time.Sleep(2 * time.Millisecond)
		}
	})

	s, _, c := startServer(t, cfg)
	sources := map[string]string{
		"a": "x := 1\nout(x)",
		"b": demoSource,
		"c": "y := a + b\ny := 2\nout(y)",
	}
	ids := make(map[string]string)
	for name, src := range sources {
		sub, err := c.Submit(context.Background(), name, src, pdce.RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = sub.ID
	}

	// Crash: kill the queue, then chop the log to its durable prefix —
	// everything an fsync never covered is gone.
	q := s.Queue()
	synced := q.WALSyncedSize()
	q.Kill()
	restore()
	if err := truncateFile(q.WALPath(), synced); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory: every acknowledged job must
	// complete.
	s2, _, c2 := startServer(t, cfg)
	defer s2.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for name := range sources {
		res, err := c2.Poll(ctx, ids[name], time.Millisecond)
		if err != nil {
			t.Fatalf("job %s: %v", name, err)
		}
		if res.State != pdce.JobDone {
			t.Fatalf("job %s: state %q error %q", name, res.State, res.Error)
		}
		var body pdce.OptimizeResponse
		if err := json.Unmarshal(res.Result, &body); err != nil {
			t.Fatalf("job %s: result body: %v", name, err)
		}
		if body.Key != ids[name] {
			t.Fatalf("job %s: result key %q, want %q", name, body.Key, ids[name])
		}
	}
	if snap := s2.Queue().Snapshot(); snap.ReplayedJobs == 0 {
		t.Fatalf("snapshot %+v, want replayed jobs after crash recovery", snap)
	}
}

// TestQueueDrainPersistsQueuedJobs: a graceful drain finishes running
// jobs but leaves queued ones in the log; they run on the next boot.
func TestQueueDrainPersistsQueuedJobs(t *testing.T) {
	cfg := queueConfig(t)
	cfg.QueueWorkers = 1

	// One worker, stalled: the first job occupies it, the rest stay
	// queued across the drain.
	block := make(chan struct{})
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			<-block
		}
	})

	s, _, c := startServer(t, cfg)
	var ids []string
	for _, src := range []string{"x := 1\nout(x)", demoSource, "y := 2\nout(y)"} {
		sub, err := c.Submit(context.Background(), "p", src, pdce.RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.ID)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let drain begin while the worker is stalled
	close(block)                      // release the running job
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	restore()

	s2, _, c2 := startServer(t, cfg)
	defer s2.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		res, err := c2.Poll(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != pdce.JobDone {
			t.Fatalf("job %s after drain+restart: state %q error %q", id, res.State, res.Error)
		}
	}
}

// TestMetricsJobQueueSection: /metrics grows a job_queue section when
// the queue is enabled and omits it when not.
func TestMetricsJobQueueSection(t *testing.T) {
	s, _, c := startServer(t, server.Config{})
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.JobQueue != nil {
		t.Fatal("queue-less server reported a job_queue section")
	}
	s.Drain(context.Background())

	cfg := queueConfig(t)
	s2, _, c2 := startServer(t, cfg)
	defer s2.Drain(context.Background())
	sub, err := c2.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c2.Poll(ctx, sub.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m2, err := c2.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m2.JobQueue == nil {
		t.Fatal("queue-enabled server omitted the job_queue section")
	}
	if m2.JobQueue.Submits != 1 || m2.JobQueue.Completions != 1 {
		t.Fatalf("job_queue section %+v, want 1 submit and 1 completion", m2.JobQueue)
	}
}

// TestSubmitCountsSolve: a job's execution takes the miss path
// /optimize takes, so its solve is counted where an interactive one is:
// one submitted job polled to done reads optimizes 1 and cache_misses 1
// in /metrics.
func TestSubmitCountsSolve(t *testing.T) {
	s, _, c := startServer(t, queueConfig(t))
	defer s.Drain(context.Background())
	sub, err := c.Submit(context.Background(), "demo", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if res, err := c.Poll(ctx, sub.ID, time.Millisecond); err != nil || res.State != pdce.JobDone {
		t.Fatalf("poll: %+v, %v", res, err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Server.Optimizes != 1 || m.Server.CacheMisses != 1 {
		t.Fatalf("after one job: optimizes %d, cache_misses %d, want 1 and 1", m.Server.Optimizes, m.Server.CacheMisses)
	}
}

// truncateFile chops path to size (the chaos crash model: unsynced
// bytes vanish).
func truncateFile(path string, size int64) error {
	return os.Truncate(path, size)
}
