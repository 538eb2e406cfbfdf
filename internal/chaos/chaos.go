// Package chaos is the cluster fault-injection harness: it runs a
// multi-replica pdced cluster fully in-process — replicas behind a
// pdce.Pool, connected by an in-memory transport — and drives it
// through seed-reproducible randomized fault schedules: replica
// crashes (WAL truncated to its durable prefix plus a random partial
// tail, the shape a real power cut leaves), graceful drains
// interrupted mid-run, solver stalls, and transport drops.
//
// After every schedule the cluster is healed and the harness asserts
// the serving stack's end-to-end contract:
//
//   - No acknowledged job is lost: every submission that received a
//     202 receipt reaches the done state on its accepting replica.
//   - Results are byte-identical to a fault-free reference server —
//     the optimizer's determinism (Theorem 3.7) must survive crash
//     replay, retry, and recomputation.
//   - No duplicate visible completions: repeated polls of one job
//     return the same bytes.
//   - No goroutine leaks once the cluster is shut down.
//
// The schedules are deterministic in Config.Seed (modulo goroutine
// interleaving), so a failing run's seed reproduces its fault
// sequence.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/server"
	"pdce/internal/store"
)

// flakyBackend wraps the shared store with schedulable faults: a full
// outage (every call errors — a dead blobd) and a slow mode (every
// call sleeps — a saturated disk or a congested network).
type flakyBackend struct {
	inner  store.Backend
	outage atomic.Bool
	delay  atomic.Int64 // per-call sleep, ns
}

var errStoreDown = fmt.Errorf("chaos: store backend down")

func (f *flakyBackend) gate() error {
	if d := f.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if f.outage.Load() {
		return errStoreDown
	}
	return nil
}

func (f *flakyBackend) Put(key string, body []byte) (bool, error) {
	if err := f.gate(); err != nil {
		return false, err
	}
	return f.inner.Put(key, body)
}

func (f *flakyBackend) Get(key string) ([]byte, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.inner.Get(key)
}

func (f *flakyBackend) Has(key string) (bool, error) {
	if err := f.gate(); err != nil {
		return false, err
	}
	return f.inner.Has(key)
}

func (f *flakyBackend) Delete(key string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

func (f *flakyBackend) Stats() (store.Stats, error) {
	if err := f.gate(); err != nil {
		return store.Stats{}, err
	}
	return f.inner.Stats()
}

// Config sizes one chaos run.
type Config struct {
	// Seed fixes the fault schedule; runs with the same seed inject
	// the same fault sequence.
	Seed int64
	// Replicas is the cluster size (default 3); Rounds the number of
	// schedule steps (default 40), each a submission burst plus at most
	// one fault.
	Replicas int
	Rounds   int
	// Store wires every replica to one shared L2 blob store (with
	// cluster solve leases on a short TTL) and adds store faults to the
	// schedule: full backend outages, slow backends, and lease owners
	// crashing mid-solve. The invariants do not change — the L2 tier
	// must degrade to local solving with zero caller-visible errors.
	Store bool
}

// replica is one cluster member: a server plus its lifecycle state.
// Its queue directory outlives restarts — that persistence is the
// thing under test.
type replica struct {
	mu    sync.Mutex
	base  string
	dir   string
	srv   *server.Server
	hnd   http.Handler
	alive bool
}

func (r *replica) handler() (http.Handler, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hnd, r.alive
}

// transport is the in-memory wire: it maps fake hosts (r0, r1, ...) to
// replica handlers, so the cluster needs no TCP ports and a "crash"
// is a flag flip, not a process kill. Requests to dead replicas — and
// a configurable fraction of requests to live ones — fail with
// transport errors, which is exactly what pdce.Pool's failover
// machinery must absorb.
type transport struct {
	mu    sync.Mutex
	reps  map[string]*replica
	drop  map[string]float64
	rng   *rand.Rand
	stall *atomic.Int64 // solver stall per visit, shared with the hook
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.mu.Lock()
	r := tr.reps[req.URL.Host]
	drop := tr.drop[req.URL.Host]
	roll := tr.rng.Float64()
	tr.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("chaos: unknown host %q", req.URL.Host)
	}
	hnd, alive := r.handler()
	if !alive {
		return nil, fmt.Errorf("chaos: connection refused (%s is down)", req.URL.Host)
	}
	if roll < drop {
		return nil, fmt.Errorf("chaos: connection reset (%s dropping)", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	hnd.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func (tr *transport) setDrop(host string, p float64) {
	tr.mu.Lock()
	tr.drop[host] = p
	tr.mu.Unlock()
}

func (tr *transport) clearDrops() {
	tr.mu.Lock()
	tr.drop = make(map[string]float64)
	tr.mu.Unlock()
}

// receipt is one acknowledged (202) submission: the durability promise
// the harness holds the cluster to.
type receipt struct {
	id      string
	name    string
	source  string
	replica string
}

// harness is one chaos run's state.
type harness struct {
	t     *testing.T
	cfg   Config
	rng   *rand.Rand
	tr    *transport
	pool  *pdce.Pool
	reps  []*replica
	stall atomic.Int64
	flaky *flakyBackend // nil unless Config.Store

	acked map[string]receipt // key: replica + "/" + id
	order []string
}

// Run executes one chaos schedule and its invariant checks.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 40
	}
	baseline := runtime.NumGoroutine()

	h := &harness{
		t:     t,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		acked: make(map[string]receipt),
	}
	h.tr = &transport{
		reps:  make(map[string]*replica),
		drop:  make(map[string]float64),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		stall: &h.stall,
	}
	if cfg.Store {
		h.flaky = &flakyBackend{inner: store.NewMemStore()}
	}
	restoreHook := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			if d := h.stall.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
	})
	defer restoreHook()

	for i := 0; i < cfg.Replicas; i++ {
		r := &replica{
			base: fmt.Sprintf("http://r%d", i),
			dir:  filepath.Join(t.TempDir(), fmt.Sprintf("r%d", i)),
		}
		h.boot(r)
		h.tr.reps[fmt.Sprintf("r%d", i)] = r
		h.reps = append(h.reps, r)
	}
	bases := make([]string, len(h.reps))
	for i, r := range h.reps {
		bases[i] = r.base
	}
	pool, err := pdce.NewPool(bases, pdce.PoolOptions{
		HTTPClient:    &http.Client{Transport: h.tr},
		ProbeInterval: -1, // probes are driven by the schedule, not a ticker
		Seed:          cfg.Seed + 2,
		Retry: pdce.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.pool = pool

	for round := 0; round < cfg.Rounds; round++ {
		h.submitBurst()
		h.fault(round)
		if h.aliveCount() == 0 {
			h.restartOneDead()
		}
	}

	h.heal()
	h.verify()
	h.shutdown()
	h.checkGoroutines(baseline)
}

// replicaConfig is every replica's server config: a durable queue, no
// request deadline (stalls must slow jobs down, not degrade them —
// degraded results are legitimately non-identical), and a small cache
// that does not survive restarts, forcing post-crash recomputation
// through the deterministic optimizer. With the store dimension on,
// every replica shares the run's flaky L2 backend on a short lease
// TTL, so a lease owner crashing mid-solve is reclaimed within a few
// schedule rounds.
func (h *harness) replicaConfig(dir string) server.Config {
	cfg := server.Config{
		QueueDir:     dir,
		QueueWorkers: 2,
		CacheEntries: 256,
	}
	if h.flaky != nil {
		cfg.Store = h.flaky
		cfg.LeaseTTL = 50 * time.Millisecond
	}
	return cfg
}

// boot starts (or restarts) a replica on its persistent queue dir.
func (h *harness) boot(r *replica) {
	srv, err := server.New(h.replicaConfig(r.dir))
	if err != nil {
		h.t.Fatalf("boot %s: %v", r.base, err)
	}
	r.mu.Lock()
	r.srv = srv
	r.hnd = srv.Handler()
	r.alive = true
	r.mu.Unlock()
}

// crash kills a replica the hard way: the transport refuses new
// connections, the queue is killed without a final sync, and the WAL
// is truncated to its durable prefix plus a random slice of the
// unsynced tail — the torn shape a real crash leaves on disk.
func (h *harness) crash(r *replica) {
	r.mu.Lock()
	if !r.alive {
		r.mu.Unlock()
		return
	}
	srv := r.srv
	r.alive = false
	r.srv = nil
	r.hnd = nil
	r.mu.Unlock()

	q := srv.Queue()
	q.Kill()
	// Everything fsync'd survives; of the unsynced tail, a random
	// prefix "reached the disk" before the power went.
	synced := q.WALSyncedSize()
	path := q.WALPath()
	if st, err := os.Stat(path); err == nil && st.Size() > synced {
		keep := synced + h.rng.Int63n(st.Size()-synced+1)
		if err := os.Truncate(path, keep); err != nil {
			h.t.Fatalf("crash truncate %s: %v", r.base, err)
		}
	}
}

// drain stops a replica gracefully with a tight deadline: a schedule
// step, not a leisurely shutdown — when running jobs don't finish in
// time the drain degenerates into a kill, which recovery must also
// absorb.
func (h *harness) drain(r *replica) {
	r.mu.Lock()
	if !r.alive {
		r.mu.Unlock()
		return
	}
	srv := r.srv
	r.alive = false
	r.srv = nil
	r.hnd = nil
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	srv.Drain(ctx) // an interrupted drain killed the queue; both shapes are valid here
}

func (h *harness) aliveCount() int {
	n := 0
	for _, r := range h.reps {
		if _, alive := r.handler(); alive {
			n++
		}
	}
	return n
}

func (h *harness) restartOneDead() {
	for _, r := range h.reps {
		if _, alive := r.handler(); !alive {
			h.boot(r)
			h.pool.Probe()
			return
		}
	}
}

// program returns corpus entry i: tiny WHILE programs with partially
// dead assignments, distinct per index so content addresses differ.
func program(i int) (name, source string) {
	name = fmt.Sprintf("chaos-%02d", i)
	source = fmt.Sprintf(
		"x := %d\ny := x + %d\nif * {\n    y := %d\n}\nout(x + y)\n",
		i%7+1, i%5+2, i%3+1)
	return
}

const corpusSize = 24

// submitBurst submits a few corpus programs through the pool. Only
// 202 receipts become tracked obligations; submissions the cluster
// refused (everything down, budget exhausted) are legitimate failures
// under chaos and carry no promise.
func (h *harness) submitBurst() {
	n := 1 + h.rng.Intn(2)
	for i := 0; i < n; i++ {
		name, source := program(h.rng.Intn(corpusSize))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, replicaURL, err := h.pool.Submit(ctx, name, source, pdce.RequestOptions{})
		cancel()
		if err != nil || resp.Cached {
			// Refused, or served straight from cache: no durability
			// promise was made.
			continue
		}
		key := replicaURL + "/" + resp.ID
		if _, ok := h.acked[key]; !ok {
			h.acked[key] = receipt{id: resp.ID, name: name, source: source, replica: replicaURL}
			h.order = append(h.order, key)
		}
	}
}

// fault applies this round's scheduled fault, if any. The store
// dimension (cases 10-12) exists only when Config.Store is set, so
// store-less runs keep their historical schedules per seed.
func (h *harness) fault(round int) {
	r := h.reps[h.rng.Intn(len(h.reps))]
	sides := 10
	if h.flaky != nil {
		sides = 13
	}
	switch h.rng.Intn(sides) {
	case 0, 1:
		h.crash(r)
	case 2:
		h.drain(r)
	case 3:
		if _, alive := r.handler(); !alive {
			h.boot(r)
			h.pool.Probe()
		}
	case 4:
		h.tr.setDrop(strings.TrimPrefix(r.base, "http://"), 0.3+0.4*h.rng.Float64())
	case 5:
		h.tr.clearDrops()
	case 6:
		// Solver stall: every node visit sleeps, so jobs are slow but
		// not degraded (replicas run without deadlines).
		h.stall.Store(int64(time.Duration(h.rng.Intn(2)+1) * time.Millisecond))
	case 7:
		h.stall.Store(0)
	case 10:
		// Full store outage: every L2 get, put, and lease call errors.
		// Replicas must keep answering from L1 and local solves.
		h.flaky.outage.Store(true)
	case 11:
		// Slow store: lease polls and fetches crawl, but nothing errors.
		h.flaky.delay.Store(int64(time.Duration(h.rng.Intn(2)+1) * time.Millisecond))
	case 12:
		// Store heals.
		h.flaky.outage.Store(false)
		h.flaky.delay.Store(0)
	default:
		// Quiet round.
	}
	_ = round
}

// heal returns the cluster to full health: faults cleared, every dead
// replica rebooted on its surviving queue directory.
func (h *harness) heal() {
	h.stall.Store(0)
	h.tr.clearDrops()
	if h.flaky != nil {
		h.flaky.outage.Store(false)
		h.flaky.delay.Store(0)
	}
	for _, r := range h.reps {
		if _, alive := r.handler(); !alive {
			h.boot(r)
		}
	}
	h.pool.Probe()
}

// verify holds the healed cluster to its promises: every 202'd job
// completes on its accepting replica, byte-identical to the fault-free
// reference server, and stays byte-identical across repeated polls.
func (h *harness) verify() {
	oracleSrv, err := server.New(server.Config{})
	if err != nil {
		h.t.Fatal(err)
	}
	oracle := httptest.NewServer(oracleSrv.Handler())
	defer oracle.Close()
	defer oracleSrv.Drain(context.Background())

	reference := make(map[string][]byte)
	ref := func(rc receipt) []byte {
		if b, ok := reference[rc.id]; ok {
			return b
		}
		resp, err := http.Post(oracle.URL+"/optimize?name="+rc.name, "text/plain",
			strings.NewReader(rc.source))
		if err != nil {
			h.t.Fatalf("oracle %s: %v", rc.name, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			h.t.Fatalf("oracle %s: %d %s", rc.name, resp.StatusCode, body)
		}
		reference[rc.id] = body
		return body
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, key := range h.order {
		rc := h.acked[key]
		res, err := h.pool.PollResult(ctx, rc.replica, rc.id, time.Millisecond)
		if err != nil {
			h.t.Fatalf("acked job %s on %s never completed: %v", rc.id, rc.replica, err)
		}
		if res.State != pdce.JobDone {
			h.t.Fatalf("acked job %s on %s: state %q error %q", rc.id, rc.replica, res.State, res.Error)
		}
		want := ref(rc)
		if string(res.Result) != string(want) {
			h.t.Fatalf("job %s on %s: result diverged from reference\ngot:  %s\nwant: %s",
				rc.id, rc.replica, res.Result, want)
		}
		// Exactly-once-visible: a second poll returns the same bytes.
		res2, err := h.pool.PollResult(ctx, rc.replica, rc.id, time.Millisecond)
		if err != nil || string(res2.Result) != string(res.Result) {
			h.t.Fatalf("job %s on %s: repeated poll diverged (err %v)", rc.id, rc.replica, err)
		}
		// Trace identity is durable: the trace id rides the WAL submit
		// record, so even a job replayed after a crash must still
		// report the trace it was born into.
		if res.TraceID == "" {
			h.t.Fatalf("job %s on %s: completed without a trace id", rc.id, rc.replica)
		}
		h.checkTrace(rc, res.TraceID)
	}
	if len(h.order) == 0 {
		h.t.Fatal("chaos run acknowledged no submissions; the schedule tested nothing")
	}
}

// checkTrace asserts the crash-recovery tracing contract for one
// acked job. The trace id itself is durable (it rides the WAL submit
// record); the span store is in-memory, so the trace body is only
// retrievable when the job executed after the replica's latest boot.
// When it is retrievable and the execution was a WAL replay, the
// execute root must link back to the pre-crash enqueue span.
func (h *harness) checkTrace(rc receipt, traceID string) {
	cl := &http.Client{Transport: h.tr}
	resp, err := cl.Get(rc.replica + "/debug/traces/" + traceID)
	if err != nil {
		h.t.Fatalf("job %s: fetch trace %s: %v", rc.id, traceID, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		// The span bodies died with the crashed process's memory, or
		// eviction took them; only the id's durability is guaranteed.
		return
	}
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("job %s: trace %s: %d %s", rc.id, traceID, resp.StatusCode, body)
	}
	var dump pdce.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		h.t.Fatalf("job %s: trace %s: %v", rc.id, traceID, err)
	}
	for _, sp := range dump.Spans {
		if sp.TraceID != traceID {
			h.t.Fatalf("job %s: span %s carries trace %s, want %s", rc.id, sp.SpanID, sp.TraceID, traceID)
		}
		if sp.Name == "queue.execute" && sp.Attrs["replayed"] == "true" {
			if sp.LinkTraceID != traceID || sp.LinkSpanID == "" {
				h.t.Fatalf("job %s: replayed execute span lost its restart link: %+v", rc.id, sp)
			}
		}
	}
}

// shutdown stops the pool and drains every replica cleanly.
func (h *harness) shutdown() {
	h.pool.Close()
	for _, r := range h.reps {
		r.mu.Lock()
		srv := r.srv
		r.alive = false
		r.mu.Unlock()
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Drain(ctx)
			cancel()
		}
	}
}

// checkGoroutines asserts the run leaked nothing once the cluster is
// down, with a settle loop for goroutines still unwinding.
func (h *harness) checkGoroutines(baseline int) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			h.t.Fatalf("goroutine leak: %d at start, %d after shutdown\n%s", baseline, n, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
