package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdce"
	"pdce/internal/obs"
)

// Queue is the durable async job queue behind POST /optimize/submit: a
// bounded worker pool over a write-ahead log (wal.go). Every accepted
// submission is logged and fsync'd before the 202 goes out, so an
// acknowledged job survives process crash and redeploy; on boot the
// log is replayed, in-flight jobs are re-enqueued, and the log is
// compacted.
//
// Jobs are keyed by the program's content address (Program.CacheKey),
// which Theorem 3.7 determinism turns into exactly-once-visible
// semantics over at-least-once execution: a duplicate submission
// collapses onto the existing job, a post-crash replay of a job whose
// result already reached the cache is a cache hit, and a replay racing
// an identical interactive request joins its singleflight — whatever
// path a job takes, exactly one result body is ever visible for its
// key.
//
// A failed run (a contained panic, a result with no usable program)
// would fail the same way again, by the same theorem, so it is final:
// the job is poisoned at once — logged, fsync'd and parked in the
// failed state for operators to triage via GET /optimize/result/{id}.
type Queue struct {
	// stats holds the counters; Snapshot adds the gauges. It comes
	// first so that its Count fields are 64-bit aligned (obs.Count).
	stats obs.QueueSnapshot

	srv *Server
	wal *WAL

	workers int

	submitMu sync.Mutex // serializes Submit's check-log-admit sequence

	mu       sync.Mutex
	jobs     map[string]*qjob
	ready    []*qjob // queued jobs in run order
	draining bool
	killed   bool

	notify chan struct{}
	drainc chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	drainOnce sync.Once
}

// qjob is one queued optimization.
type qjob struct {
	id     string
	name   string
	source string
	lang   string

	mode      string
	maxRounds int
	telemetry bool
	trace     bool
	deadline  time.Duration // 0 = the server's default deadline

	state     string // pdce.JobQueued/JobRunning/JobDone/JobFailed
	lastErr   string
	body      []byte
	degraded  bool
	submitted time.Time
	replayed  bool

	// Request-tracing identity, persisted in the WAL submit record:
	// traceID is the submitting request's trace, spanID the enqueue
	// span, requestID the Pdce-Request-Id. Execution spans — even
	// after a crash and replay in a fresh process — join the same
	// trace and link back to the enqueue span.
	traceID   string
	spanID    string
	requestID string
}

// walFile is the log's name inside Config.QueueDir.
const walFile = "queue.wal"

// newQueue opens (and replays) the log under cfg.QueueDir and starts
// the workers. Called by New when a queue directory is configured.
func newQueue(srv *Server, cfg Config) (*Queue, error) {
	if err := os.MkdirAll(cfg.QueueDir, 0o755); err != nil {
		return nil, fmt.Errorf("queue dir: %w", err)
	}
	path := filepath.Join(cfg.QueueDir, walFile)
	wal, recs, rst, err := OpenWAL(path)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		srv:     srv,
		wal:     wal,
		workers: cfg.QueueWorkers,
		jobs:    make(map[string]*qjob),
		notify:  make(chan struct{}, 64),
		drainc:  make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	live := q.fold(recs)
	if rst.TornBytes > 0 {
		q.stats.TornRecords.Add(1)
	}
	q.stats.CorruptRecords.Add(int64(rst.CorruptRecords))

	// Compact: the replayed state collapses to at most two records per
	// live job, and acknowledged jobs disappear entirely.
	if err := wal.Close(); err != nil {
		cancel()
		return nil, err
	}
	if q.wal, err = rewriteWAL(path, compactRecords(live)); err != nil {
		cancel()
		return nil, err
	}

	// Queued jobs run in the order they were submitted.
	for _, j := range live {
		if j.state == pdce.JobQueued {
			if j.replayed {
				q.stats.ReplayedJobs.Add(1)
			}
			q.ready = append(q.ready, j)
		}
	}
	for i := 0; i < q.workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// fold rebuilds the job table from replayed records, in log order, and
// returns the jobs it holds in the order of their submit records. A
// fail record is terminal, whatever wrote it: a log from a build that
// retried failed jobs holds one per failed run, and its job is failed
// unless a later done record says a run succeeded.
func (q *Queue) fold(recs []walRecord) []*qjob {
	now := time.Now()
	var order []*qjob
	for _, rec := range recs {
		switch rec.Op {
		case "submit":
			if _, ok := q.jobs[rec.ID]; ok {
				continue
			}
			submitted := now
			if rec.SubmittedUnixMS > 0 {
				submitted = time.UnixMilli(rec.SubmittedUnixMS)
			}
			j := &qjob{
				id: rec.ID, name: rec.Name, source: rec.Source, lang: rec.Lang,
				mode: rec.Mode, maxRounds: rec.MaxRounds, deadline: time.Duration(rec.DeadlineMS) * time.Millisecond,
				telemetry: rec.Telemetry, trace: rec.Trace,
				traceID: rec.TraceID, spanID: rec.SpanID, requestID: rec.RequestID,
				state: pdce.JobQueued, submitted: submitted,
			}
			q.jobs[rec.ID] = j
			order = append(order, j)
		case "start":
			if j, ok := q.jobs[rec.ID]; ok && j.state == pdce.JobQueued {
				j.replayed = true // it was in flight when the process died
			}
		case "done":
			if j, ok := q.jobs[rec.ID]; ok {
				j.state = pdce.JobDone
				j.body = rec.Body
				j.degraded = rec.Degraded
			}
		case "fail":
			if j, ok := q.jobs[rec.ID]; ok {
				j.state = pdce.JobFailed // poison survives restarts
				j.lastErr = rec.Error
			}
		case "ack":
			delete(q.jobs, rec.ID)
		}
	}
	// Drop the acknowledged jobs: a job resubmitted after its ack is a
	// new job, listed at its new submit record.
	live := order[:0]
	for _, j := range order {
		if q.jobs[j.id] == j {
			live = append(live, j)
		}
	}
	return live
}

// compactRecords renders jobs, in their order, as a minimal log.
func compactRecords(jobs []*qjob) []walRecord {
	recs := make([]walRecord, 0, 2*len(jobs))
	for _, j := range jobs {
		recs = append(recs, j.submitRecord())
		switch j.state {
		case pdce.JobDone:
			recs = append(recs, walRecord{Op: "done", ID: j.id, Body: j.body, Degraded: j.degraded})
		case pdce.JobFailed:
			recs = append(recs, walRecord{Op: "fail", ID: j.id, Error: j.lastErr})
		}
	}
	return recs
}

// submitRecord renders j's submission as a log record.
func (j *qjob) submitRecord() walRecord {
	return walRecord{
		Op: "submit", ID: j.id, Name: j.name, Source: j.source, Lang: j.lang,
		Mode: j.mode, MaxRounds: j.maxRounds, DeadlineMS: j.deadline.Milliseconds(),
		Telemetry: j.telemetry, Trace: j.trace, SubmittedUnixMS: j.submitted.UnixMilli(),
		TraceID: j.traceID, SpanID: j.spanID, RequestID: j.requestID,
	}
}

// Submit durably enqueues one job and returns its state. A job with
// the same content address already known — queued, running, done, or
// poisoned — is returned as-is (dup true) without touching the log: at
// the queue's level, resubmission is idempotent. The submit record is
// fsync'd before Submit returns; an append or fsync failure is
// returned as an error and the job is not accepted (the caller must
// not acknowledge it).
//
// sp, when non-nil, is the submitting request's span: Submit opens a
// "queue.enqueue" child with a "queue.wal.fsync" child under it, and
// persists the trace identity in the submit record so the job's later
// execution — possibly in a different process lifetime — continues
// the same trace. rid is the request's Pdce-Request-Id, stamped into
// the repro bundle a panicking run writes. o.Deadline bounds the
// job's optimization; 0 leaves it to the server's default deadline.
func (q *Queue) Submit(id, name, source string, o pdce.RequestOptions, sp *obs.Span, rid string) (state string, dup bool, err error) {
	// Submissions are serialized by submitMu so the job table only ever
	// holds durably-logged jobs: a concurrent duplicate must not be
	// acknowledged off the back of a first submission whose fsync is
	// still in flight (and might fail).
	q.submitMu.Lock()
	defer q.submitMu.Unlock()

	q.mu.Lock()
	if q.draining || q.killed {
		q.mu.Unlock()
		return "", false, errors.New("queue is draining")
	}
	if j, ok := q.jobs[id]; ok {
		st := j.state
		q.mu.Unlock()
		q.stats.DupSubmits.Add(1)
		return st, true, nil
	}
	q.mu.Unlock()

	esp := sp.Child("queue.enqueue")
	sc := esp.Context()
	j := &qjob{
		id: id, name: name, source: source, lang: o.Lang,
		mode: o.Mode.String(), maxRounds: o.MaxRounds,
		telemetry: o.Telemetry, trace: o.Trace, deadline: o.Deadline,
		traceID: sc.TraceID, spanID: sc.SpanID, requestID: rid,
		state: pdce.JobQueued, submitted: time.Now(),
	}
	fsp := esp.Child("queue.wal.fsync")
	err = q.wal.Append(j.submitRecord(), true)
	if err != nil {
		fsp.SetError("fsync")
		fsp.End()
		esp.SetError("fsync")
		esp.End()
		// Durability could not be promised: the job was never admitted,
		// so a retried submission starts clean.
		q.stats.FsyncFailures.Add(1)
		return "", false, err
	}
	fsp.End()
	esp.End()
	q.mu.Lock()
	q.jobs[id] = j
	q.ready = append(q.ready, j)
	q.mu.Unlock()
	q.stats.Submits.Add(1)
	q.wakeOne()
	return pdce.JobQueued, false, nil
}

// Result reports one job's state, embedding the stored response bytes
// for terminal jobs. With ack true a terminal job is acknowledged:
// logged, dropped from the table, and freed at the next compaction
// (its result stays reachable through the content-addressed cache as
// long as that retains it).
func (q *Queue) Result(id string, ack bool) (pdce.JobResult, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return pdce.JobResult{}, false
	}
	res := pdce.JobResult{ID: id, State: j.state, TraceID: j.traceID}
	switch j.state {
	case pdce.JobDone:
		res.Result = json.RawMessage(j.body)
	case pdce.JobFailed:
		res.Error = j.lastErr
	}
	terminal := j.state == pdce.JobDone || j.state == pdce.JobFailed
	if ack && terminal {
		delete(q.jobs, id)
	}
	q.mu.Unlock()
	if ack && terminal {
		q.stats.Acks.Add(1)
		q.wal.Append(walRecord{Op: "ack", ID: id}, false)
	}
	return res, true
}

// Drain stops dispatching new jobs, waits (bounded by ctx) for running
// jobs to finish, and closes the log cleanly. Jobs still queued stay
// in the log and resume on the next boot. On ctx expiry the remaining
// workers are killed; their in-flight jobs replay after restart.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
	q.drainOnce.Do(func() { close(q.drainc) })

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return q.wal.Close()
	case <-ctx.Done():
		q.Kill()
		return fmt.Errorf("pdced: queue drain interrupted: %w", ctx.Err())
	}
}

// Kill is the crash-shaped stop: running jobs are cancelled, nothing
// further is logged, and the log file is abandoned without a final
// sync — exactly what a SIGKILL would leave behind. The chaos harness
// pairs it with truncating the file to its synced prefix.
func (q *Queue) Kill() {
	q.mu.Lock()
	q.killed = true
	q.mu.Unlock()
	q.cancel()
	q.wg.Wait()
	q.wal.abandon()
}

// WALSyncedSize exposes the durable log prefix for crash simulation.
func (q *Queue) WALSyncedSize() int64 { return q.wal.SyncedSize() }

// WALPath returns the log file's location.
func (q *Queue) WALPath() string { return q.wal.path }

// Snapshot freezes the queue's /metrics section.
func (q *Queue) Snapshot() obs.QueueSnapshot {
	snap := obs.Freeze(&q.stats)
	snap.WALRecords, snap.WALBytes = q.wal.Records(), q.wal.Size()
	now := time.Now()
	var oldest time.Time
	q.mu.Lock()
	for _, j := range q.jobs {
		switch j.state {
		case pdce.JobQueued:
			snap.Depth++
		case pdce.JobRunning:
			snap.Running++
		case pdce.JobDone:
			snap.Done++
		case pdce.JobFailed:
			snap.Failed++
		}
		if j.state == pdce.JobQueued || j.state == pdce.JobRunning {
			if oldest.IsZero() || j.submitted.Before(oldest) {
				oldest = j.submitted
			}
		}
	}
	q.mu.Unlock()
	if !oldest.IsZero() {
		snap.OldestAgeMS = now.Sub(oldest).Milliseconds()
	}
	return snap
}

// --- worker pool ------------------------------------------------------

func (q *Queue) wakeOne() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// worker runs ready jobs until drain or kill, waiting for a
// submission while none is ready.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		j, ok := q.next()
		if !ok {
			return
		}
		if j == nil {
			select {
			case <-q.notify:
			case <-q.drainc:
				return
			case <-q.ctx.Done():
				return
			}
			continue
		}
		q.run(j)
	}
}

// next claims the oldest ready job, or returns nil when none is ready;
// ok false means the worker should exit.
func (q *Queue) next() (j *qjob, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining || q.killed {
		return nil, false
	}
	if len(q.ready) == 0 {
		return nil, true
	}
	j = q.ready[0]
	q.ready[0] = nil
	q.ready = q.ready[1:]
	j.state = pdce.JobRunning
	return j, true
}

// run executes one claimed job and records its outcome.
func (q *Queue) run(j *qjob) {
	q.wal.Append(walRecord{Op: "start", ID: j.id}, false)

	// The execution span is a root (it decides retention in THIS
	// process's store — the submission may have happened in a previous
	// lifetime) parented on the enqueue span persisted in the WAL, so
	// the dequeue-to-done gap shows up as the tree's timing hole. A
	// replayed job additionally records an explicit restart link.
	xsp := q.srv.traces.StartSpan("queue.execute", "pdced",
		obs.SpanContext{TraceID: j.traceID, SpanID: j.spanID})
	xsp.SetAttr("job", j.id)
	if j.replayed {
		xsp.SetAttr("replayed", "true")
		xsp.SetLink(obs.SpanContext{TraceID: j.traceID, SpanID: j.spanID})
	}

	body, degraded, runErr := q.execute(j, xsp)
	if q.ctx.Err() != nil {
		// Killed mid-run: no outcome may be logged — the job replays
		// after restart, and determinism makes the replay harmless.
		// (The span dies with this store; the replay's span survives.)
		return
	}
	if runErr == nil {
		q.wal.Append(walRecord{Op: "done", ID: j.id, Body: body, Degraded: degraded}, true)
		q.mu.Lock()
		j.state = pdce.JobDone
		j.body = body
		j.degraded = degraded
		// Counters move before the state is visible: a poller that sees
		// "done" must also see the completion counted.
		q.stats.Completions.Add(1)
		if degraded {
			q.stats.Degraded.Add(1)
		}
		q.mu.Unlock()
		if degraded {
			xsp.SetAttr("outcome", "degraded")
		} else {
			xsp.SetAttr("outcome", "done")
		}
		xsp.End()
		return
	}

	// The failure is final: a re-run would fail the same way. The fail
	// record is durable before a poller can see the state.
	q.wal.Append(walRecord{Op: "fail", ID: j.id, Error: runErr.Error()}, true)
	q.mu.Lock()
	j.state = pdce.JobFailed
	j.lastErr = runErr.Error()
	q.stats.Poisoned.Add(1)
	q.mu.Unlock()
	// SetError on a root span survives tail sampling, so a poisoned
	// job's trace is kept even if the submission's side was sampled out.
	xsp.SetError("poisoned")
	xsp.End()
}

// execute produces the job's serialized response through the miss
// path POST /optimize takes (miss.go): L1, then claimMiss, then the
// job's parse and one solve under the claim. A degraded result ends
// the job done; a contained panic or a parse failure is an error that
// poisons it.
func (q *Queue) execute(j *qjob, xsp *obs.Span) (body []byte, degraded bool, err error) {
	if body, ok := q.srv.cacheGet(j.id, xsp); ok {
		return body, false, nil
	}
	body, _, c, err := q.srv.claimMiss(q.ctx, j.id, xsp)
	if c == nil {
		return body, false, err
	}
	defer c.finish()
	o := pdce.RequestOptions{MaxRounds: j.maxRounds, Deadline: j.deadline, Telemetry: j.telemetry, Trace: j.trace, Lang: j.lang}
	o.Mode, err = parseMode(j.mode)
	var prog *pdce.Program
	if err == nil {
		prog, err = o.Parse(j.name, j.source)
	}
	if err != nil {
		return nil, false, err
	}
	if body, err = c.solve(q.ctx, prog, o, j.requestID); body != nil {
		return body, err != nil, nil
	}
	return nil, false, err
}
