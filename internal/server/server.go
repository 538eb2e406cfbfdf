// Package server is the pdced optimization service: a long-running
// HTTP layer over the public pdce API that turns the transformation's
// determinism into throughput.
//
// The paper's result (Theorem 3.7) makes Optimize a pure function of
// (canonical program, options), so results are content-addressed
// (pdce.Program.CacheKey) and memoized in a sharded LRU with optional
// disk spill; concurrent identical requests are deduplicated by a
// singleflight layer so a thundering herd computes once. Capacity is
// guarded by admission control: a bounded number of in-flight
// optimizations, a bounded wait queue, and immediate load shedding
// (429 Retry-After) beyond that, while /healthz stays green — a full
// queue is policy, not ill health. Failure containment rides on
// pdce.SafeOptimize: contained panics answer 500 with the repro-bundle
// path and never poison the cache; watchdog/rollback degradations
// answer 200 with the best partial result, marked degraded and
// uncached. Graceful drain rejects new work with 503 while every
// in-flight request runs to completion.
//
// cmd/pdced wires this package to flags and signals; pdce.Client is
// the matching Go client.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/obs"
	"pdce/internal/store"
)

// Serving policy every replica shares; no flag or Config field sets it.
const (
	maxBodyBytes      = 8 << 20         // cap on every request body
	retryAfterSeconds = 1               // Retry-After on 429 and 503
	queueMaxBackoff   = 2 * time.Second // cap on the queue's retry delay
)

// Config sizes one Server. The zero value is usable: every field has
// a sensible default applied by New.
type Config struct {
	// CacheEntries bounds the in-memory result cache (default 4096
	// entries across 16 shards); SpillDir, when non-empty, persists
	// results to disk so warm entries survive restarts.
	CacheEntries int
	SpillDir     string

	// MaxInFlight bounds concurrent optimizations (default
	// GOMAXPROCS); MaxQueue bounds requests waiting for a slot
	// (default 4×MaxInFlight). Beyond both, requests are shed with
	// 429.
	MaxInFlight int
	MaxQueue    int

	// DefaultDeadline bounds each optimization's wall clock when the
	// request does not set its own (0 = none); RoundBudget is the
	// per-round watchdog forwarded to the optimizer (0 = none). Both
	// map to the PR-2 containment layer: expiry degrades to the best
	// partial result rather than failing the request.
	DefaultDeadline time.Duration
	RoundBudget     time.Duration

	// ReproDir receives repro bundles for contained optimizer panics.
	ReproDir string

	// BatchWorkers is the pool size for /optimize/batch (default
	// MaxInFlight). The pool additionally acquires one admission slot
	// per job, so batches share the server-wide budget.
	BatchWorkers int

	// QueueDir enables the durable async job queue (POST
	// /optimize/submit): accepted jobs are logged to a write-ahead log
	// under this directory, fsync'd before the 202, and replayed on
	// boot, so acknowledged submissions survive crash and redeploy.
	// Empty disables the async endpoints (they answer 503).
	QueueDir string
	// QueueRetries bounds the attempts per job before it is poisoned
	// (parked in the failed state; default 3). QueueWorkers sizes the
	// queue's worker pool (default 2). QueueBackoff is the first retry
	// delay of the exponential backoff capped at queueMaxBackoff
	// (default 50ms).
	QueueRetries int
	QueueWorkers int
	QueueBackoff time.Duration

	// Store, when non-nil, is the shared L2 result store behind the
	// in-memory cache (see store.go): local misses consult it before
	// solving, local solves publish to it, and solve ownership for keys
	// no replica has published is arbitrated cluster-wide through TTL
	// leases over the same backend. StoreVersion prefixes every store
	// key (default pdce.CacheKeyVersion()), so replicas from different
	// builds sharing one store never serve each other's entries.
	Store        store.Backend
	StoreVersion string

	// LeaseTTL bounds how long a crashed replica's solve lease can
	// stall its key fleet-wide (default 3s); LeaseOwner identifies this
	// replica in lease records (default: random per boot — a restarted
	// replica must not inherit its predecessor's leases).
	LeaseTTL   time.Duration
	LeaseOwner string

	// PeerCache serves this replica's own cache under the store wire
	// contract (GET/PUT /cache/{key}), letting fleet members use each
	// other as L2 peers with no extra infrastructure.
	PeerCache bool

	// TraceCapacity bounds the in-process request-trace store (default
	// 512 traces; negative disables tracing entirely — requests then
	// pay one nil check per boundary and the /debug/traces surface
	// answers 503). TraceSample is the tail-sampling keep probability
	// for unremarkable traces in (0,1] (default 1 = keep all within
	// capacity); error, shed, and p99-slow traces are always kept.
	// TraceSeed fixes the sampling RNG for reproducible tests (0 =
	// wall clock).
	TraceCapacity int
	TraceSample   float64
	TraceSeed     int64
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = c.MaxInFlight
	}
	if c.QueueRetries <= 0 {
		c.QueueRetries = 3
	}
	if c.QueueWorkers <= 0 {
		c.QueueWorkers = 2
	}
	if c.QueueBackoff <= 0 {
		c.QueueBackoff = 50 * time.Millisecond
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 512
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.StoreVersion == "" {
		c.StoreVersion = pdce.CacheKeyVersion()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.LeaseOwner == "" {
		c.LeaseOwner = randomOwner()
	}
	return c
}

// Server is one pdced instance. Construct with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg    Config
	cache  *Cache
	adm    *Admission
	stats  *obs.ServerStats
	queue  *Queue          // nil when Config.QueueDir is empty
	traces *obs.TraceStore // nil when Config.TraceCapacity < 0

	// Shared L2 store state, nil/zero when Config.Store is nil.
	storeStats *obs.StoreStats
	lease      *store.Lease
	l2wg       sync.WaitGroup // in-flight async L2 puts

	flightMu sync.Mutex
	flight   map[string]*flightCall

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	started time.Time
}

// New builds a server from cfg (zero fields defaulted).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewCache(cfg.CacheEntries, cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	cache.admit = admitResult
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		adm:     NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		stats:   &obs.ServerStats{},
		flight:  make(map[string]*flightCall),
		started: time.Now(),
	}
	if cfg.TraceCapacity > 0 {
		s.traces = obs.NewTraceStore(cfg.TraceCapacity, cfg.TraceSample, cfg.TraceSeed)
	}
	if cfg.Store != nil {
		s.storeStats = &obs.StoreStats{}
		s.lease = store.NewLease(cfg.Store, cfg.LeaseOwner, cfg.LeaseTTL, s.storeStats)
	}
	if cfg.QueueDir != "" {
		if s.queue, err = newQueue(s, cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Stats exposes the request counters (tests and cmd/pdced logging).
func (s *Server) Stats() *obs.ServerStats { return s.stats }

// Cache exposes the result cache (tests).
func (s *Server) Cache() *Cache { return s.cache }

// Admission exposes the admission controller; it implements
// batch.Gate.
func (s *Server) Admission() *Admission { return s.adm }

// Queue exposes the durable job queue (nil when disabled). Tests and
// the chaos harness use it for crash simulation and gauge assertions.
func (s *Server) Queue() *Queue { return s.queue }

// Traces exposes the request-trace store (nil when tracing is
// disabled). Tests and the chaos harness query it directly.
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// Handler returns the HTTP surface:
//
//	POST /optimize             body = program source; see handleOptimize
//	POST /optimize/batch       body = pdce.BatchOptimizeRequest JSON
//	POST /optimize/submit      async submission; see handleSubmit
//	GET  /optimize/result/{id} async job state; see handleResult
//	GET  /healthz              liveness: "ok", or "draining" with 503
//	GET  /metrics              pdce.ServerMetrics JSON (?format=prom
//	                           for Prometheus text exposition)
//	GET  /debug/traces         retained request traces, newest first
//	GET  /debug/traces/{id}    one trace's span tree
//	POST /debug/traces         span ingest (pool clients export here)
//
// Every response carries Pdce-Request-Id; traced requests additionally
// carry Pdce-Trace-Id and join the caller's traceparent when present.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", s.handleOptimize)
	mux.HandleFunc("POST /optimize/batch", s.handleBatch)
	mux.HandleFunc("POST /optimize/submit", s.handleSubmit)
	mux.HandleFunc("GET /optimize/result/{id}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("POST /debug/traces", s.handleTraceIngest)
	if s.cfg.PeerCache {
		mux.HandleFunc("GET /cache/{key}", s.handlePeerGet) // also HEAD
		mux.HandleFunc("PUT /cache/{key}", s.handlePeerPut)
		mux.HandleFunc("GET /stats", s.handlePeerStats)
	}
	return s.withObservability(mux)
}

// --- graceful drain ---------------------------------------------------

// enter registers one in-flight request, refusing once drain began.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) exit() { s.inflight.Done() }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// BeginDrain flips the server into drain mode: every subsequent
// optimize request is rejected with 503 and /healthz turns red, while
// requests already admitted keep running.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// Drain begins drain mode and blocks until every in-flight request
// completed or ctx expired (in which case the remaining count keeps
// running; the caller decides whether to hard-stop). With the durable
// queue enabled, its running jobs are also drained — jobs still
// queued stay in the write-ahead log and resume on the next boot.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	wait := func(wg *sync.WaitGroup) error {
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("pdced: drain interrupted: %w", ctx.Err())
		}
	}
	if err := wait(&s.inflight); err != nil {
		return err
	}
	if s.queue != nil {
		if err := s.queue.Drain(ctx); err != nil {
			return err
		}
	}
	// Flush async L2 publishes before reporting drained. This must run
	// after the queue drain: queue workers call l2Put until Drain stops
	// them, and a WaitGroup Add racing an in-progress Wait is undefined.
	return wait(&s.l2wg)
}

// --- singleflight -----------------------------------------------------

type flightCall struct{ done chan struct{} }

// joinFlight registers interest in key. The first caller becomes the
// leader (and must leaveFlight when finished); followers receive the
// call to wait on.
func (s *Server) joinFlight(key string) (leader bool, c *flightCall) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if c, ok := s.flight[key]; ok {
		return false, c
	}
	c = &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	return true, c
}

func (s *Server) leaveFlight(key string, c *flightCall) {
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(c.done)
}

// --- handlers ---------------------------------------------------------

// handleOptimize serves one program. Query parameters: name, mode
// (pde|pfe), max_rounds, deadline_ms, telemetry, trace, explain, lang
// (cfg|while; default auto-detect). The body is the program source.
//
// Responses: 200 with pdce.OptimizeResponse (the X-Pdced-Cache header
// carries hit/miss/dedup; degraded partial results are 200 too, marked
// in the body and never cached), 400 for bad input, 429 when shed, 500
// for a contained optimizer panic, 503 when draining.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.stats.AddRequest()
	if !s.enter() {
		s.stats.AddShedDraining()
		s.httpError(w, http.StatusServiceUnavailable, "draining", "server is draining", "")
		return
	}
	defer s.exit()
	start := time.Now()
	defer func() { s.stats.RecordLatency(time.Since(start)) }()
	sp := obs.SpanFromContext(r.Context())

	o, explain, perr := optionsFromQuery(r)
	if perr != "" {
		s.httpError(w, http.StatusBadRequest, "bad-request", perr, "")
		return
	}
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), "")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "request"
	}
	prog, err := parseProgram(string(src), name, r.URL.Query().Get("lang"))
	if err != nil {
		s.stats.AddParseFailure()
		s.httpError(w, http.StatusBadRequest, "parse", err.Error(), "")
		return
	}

	key := requestKey(prog, o, explain)
	csp := sp.Child("server.cache")
	body, hit := s.cache.Get(key)
	if hit {
		csp.SetAttr("outcome", "hit")
	} else {
		csp.SetAttr("outcome", "miss")
	}
	csp.End()
	if hit {
		s.stats.AddCacheHit()
		s.serve(w, body, pdce.CacheHit)
		return
	}

	// Singleflight: concurrent identical requests compute once. A
	// follower waits for the leader and re-checks the cache; if the
	// leader failed (and so cached nothing), the follower computes for
	// itself below.
	leader, call := s.joinFlight(key)
	if !leader {
		wsp := sp.Child("server.flight.wait")
		select {
		case <-call.done:
			wsp.End()
		case <-r.Context().Done():
			wsp.SetError("canceled")
			wsp.End()
			s.httpError(w, http.StatusServiceUnavailable, "canceled", "client gave up waiting", "")
			return
		}
		if body, ok := s.cache.Get(key); ok {
			s.stats.AddDedup()
			s.serve(w, body, pdce.CacheDedup)
			return
		}
	} else {
		defer s.leaveFlight(key, call)
	}

	// Shared L2: another replica (or a past life of this one) may have
	// published the result already.
	if body, ok := s.l2Get(key, sp); ok {
		s.stats.AddCacheHit()
		s.serve(w, body, pdce.CacheHit)
		return
	}
	s.stats.AddCacheMiss()

	// Cluster singleflight: before solving, race the fleet for the
	// solve lease. A lost race waits out the winner and serves its
	// published result as a dedup; a won (or lease-less) race solves
	// below, releasing the lease once the result is published.
	fetched, release := s.l2Flight(r.Context(), key, sp)
	if fetched != nil {
		s.stats.AddDedup()
		s.serve(w, fetched, pdce.CacheDedup)
		return
	}
	published := false
	defer func() {
		if !published {
			release()
		}
	}()

	asp := sp.Child("server.admission")
	if err := s.adm.Acquire(r.Context()); err != nil {
		if errors.Is(err, ErrQueueFull) {
			asp.SetError("queue-full")
			asp.End()
			s.stats.AddShedQueueFull()
			s.httpError(w, http.StatusTooManyRequests, "queue-full",
				"server at capacity, retry later", "")
			return
		}
		asp.SetError("canceled")
		asp.End()
		s.httpError(w, http.StatusServiceUnavailable, "canceled", err.Error(), "")
		return
	}
	asp.End()
	defer s.adm.Release()
	faultinject.Fire(faultinject.ServerRequest, prog.Name())

	ctx := r.Context()
	if d := s.requestDeadline(r); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	o.Context = ctx
	o.RoundBudget = s.cfg.RoundBudget
	o.ReproDir = s.cfg.ReproDir
	o.RequestTag = requestIDFrom(r.Context())
	ssp := sp.Child("solve")
	o.Span = ssp

	s.stats.AddOptimize()
	opt, st, err := prog.SafeOptimize(o)
	if err != nil {
		ssp.SetError(errorKind(err))
	}
	ssp.End()
	resp := s.buildResponse(prog.Name(), key, o, opt, st, explain)
	switch {
	case err == nil:
		body, merr := json.Marshal(resp)
		if merr != nil {
			s.httpError(w, http.StatusInternalServerError, "internal", merr.Error(), "")
			return
		}
		s.cache.Put(key, body)
		s.l2Put(key, body, sp, release)
		published = true
		s.serve(w, body, pdce.CacheMiss)
	default:
		var pe *pdce.PanicError
		if errors.As(err, &pe) {
			// A contained panic: 500 with the repro-bundle path. The
			// cache was never touched, so the poisoned run cannot be
			// replayed to anyone.
			s.stats.AddPanic()
			s.httpError(w, http.StatusInternalServerError, "panic", err.Error(), pe.Bundle)
			return
		}
		// Watchdog or verified-mode degradation: the result is correct
		// but partial. Serve it marked degraded; never cache it.
		s.stats.AddDegraded()
		resp.Degraded = true
		resp.Error = err.Error()
		resp.ErrorKind = errorKind(err)
		body, merr := json.Marshal(resp)
		if merr != nil {
			s.httpError(w, http.StatusInternalServerError, "internal", merr.Error(), "")
			return
		}
		s.serve(w, body, pdce.CacheMiss)
	}
}

// handleBatch serves many programs in one request through the PR-1
// worker pool, gated per job by the server-wide admission controller.
// Cache hits skip the pool entirely; per-program failures (parse, shed,
// degraded, panic) are reported in their entries, so the call itself is
// 200 unless the request is malformed or the server is draining.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.AddRequest()
	s.stats.AddBatchRequest()
	if !s.enter() {
		s.stats.AddShedDraining()
		s.httpError(w, http.StatusServiceUnavailable, "draining", "server is draining", "")
		return
	}
	defer s.exit()
	start := time.Now()
	defer func() { s.stats.RecordLatency(time.Since(start)) }()

	var breq pdce.BatchOptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&breq); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "decoding batch request: "+err.Error(), "")
		return
	}
	if len(breq.Programs) == 0 {
		s.httpError(w, http.StatusBadRequest, "bad-request", "empty batch", "")
		return
	}
	o := pdce.Options{MaxRounds: breq.MaxRounds, Telemetry: breq.Telemetry}
	// The batch's pool jobs trace as "batch.job" children of the
	// request's root span, one per cache miss.
	o.Span = obs.SpanFromContext(r.Context())
	o.RequestTag = requestIDFrom(r.Context())
	switch breq.Mode {
	case "", "pde":
		o.Mode = pdce.Dead
	case "pfe":
		o.Mode = pdce.Faint
	default:
		s.httpError(w, http.StatusBadRequest, "bad-request",
			fmt.Sprintf("unknown mode %q (want pde or pfe)", breq.Mode), "")
		return
	}

	entries := make([]pdce.BatchEntryResult, len(breq.Programs))
	var missIdx []int
	var missProgs []*pdce.Program
	for i, bp := range breq.Programs {
		name := bp.Name
		if name == "" {
			name = fmt.Sprintf("program-%d", i)
		}
		entries[i].Name = name
		entries[i].Mode = o.Mode.String()
		prog, err := parseProgram(bp.Source, name, "")
		if err != nil {
			s.stats.AddParseFailure()
			entries[i].Error = err.Error()
			entries[i].ErrorKind = "parse"
			continue
		}
		key := requestKey(prog, o, "")
		entries[i].Key = key
		if body, ok := s.cache.Get(key); ok {
			s.stats.AddCacheHit()
			var cached pdce.OptimizeResponse
			if json.Unmarshal(body, &cached) == nil {
				entries[i].OptimizeResponse = cached
				entries[i].Cached = true
				continue
			}
		}
		s.stats.AddCacheMiss()
		missIdx = append(missIdx, i)
		missProgs = append(missProgs, prog)
	}

	resp := pdce.BatchOptimizeResponse{}
	if len(missProgs) > 0 {
		ctx := r.Context()
		deadline := s.cfg.DefaultDeadline
		if breq.DeadlineMS > 0 {
			deadline = time.Duration(breq.DeadlineMS) * time.Millisecond
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		o.Context = ctx
		o.RoundBudget = s.cfg.RoundBudget
		o.ReproDir = s.cfg.ReproDir
		results, metrics := pdce.OptimizeAllGated(missProgs, o, s.cfg.BatchWorkers, nil, s.adm)
		resp.Metrics = &metrics
		for j, res := range results {
			i := missIdx[j]
			e := &entries[i]
			switch {
			case res.Err == nil:
				s.stats.AddOptimize()
				*e = pdce.BatchEntryResult{
					OptimizeResponse: s.buildResponse(res.Name, e.Key, o, res.Program, res.Stats, ""),
				}
				if body, merr := json.Marshal(e.OptimizeResponse); merr == nil {
					s.cache.Put(e.Key, body)
				}
			case errors.Is(res.Err, ErrQueueFull):
				s.stats.AddShedQueueFull()
				e.Shed = true
				e.Error = res.Err.Error()
				e.ErrorKind = "queue-full"
			default:
				if res.Program != nil {
					// Degraded but usable (watchdog stop, contained
					// panic returning the input): report it with the
					// error attached, uncached.
					s.stats.AddOptimize()
					s.stats.AddDegraded()
					*e = pdce.BatchEntryResult{
						OptimizeResponse: s.buildResponse(res.Name, e.Key, o, res.Program, res.Stats, ""),
					}
					e.Degraded = true
				}
				e.Error = res.Err.Error()
				e.ErrorKind = errorKind(res.Err)
			}
		}
	}
	resp.Results = entries
	body, err := json.Marshal(resp)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "internal", err.Error(), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleSubmit accepts one program for asynchronous optimization.
// Query parameters match /optimize minus explain (provenance reports
// are interactive-only). The job ID is the program's content address,
// so resubmitting the same program is idempotent: a duplicate answers
// 202 with the existing job's state, and a program whose result is
// already cached answers 200 with state "done" without queueing
// anything.
//
// Responses: 202 with pdce.SubmitResponse once the submission is
// durably logged (fsync'd — the 202 is the durability promise), 200
// for an immediate cache hit, 400 for bad input, 500 when the log
// cannot be written, 503 when draining or the queue is disabled.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.AddRequest()
	if s.queue == nil {
		s.httpError(w, http.StatusServiceUnavailable, "queue-disabled",
			"async queue is disabled (no -queue-dir)", "")
		return
	}
	if !s.enter() {
		s.stats.AddShedDraining()
		s.httpError(w, http.StatusServiceUnavailable, "draining", "server is draining", "")
		return
	}
	defer s.exit()
	start := time.Now()
	defer func() { s.stats.RecordLatency(time.Since(start)) }()

	o, explain, perr := optionsFromQuery(r)
	if perr != "" {
		s.httpError(w, http.StatusBadRequest, "bad-request", perr, "")
		return
	}
	if explain != "" {
		s.httpError(w, http.StatusBadRequest, "bad-request",
			"explain is not supported on async submissions", "")
		return
	}
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), "")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "request"
	}
	lang := r.URL.Query().Get("lang")
	prog, err := parseProgram(string(src), name, lang)
	if err != nil {
		s.stats.AddParseFailure()
		s.httpError(w, http.StatusBadRequest, "parse", err.Error(), "")
		return
	}

	sp := obs.SpanFromContext(r.Context())
	key := requestKey(prog, o, "")
	if _, ok := s.cache.Get(key); ok {
		// Already computed: answer done without consuming queue space.
		s.stats.AddCacheHit()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(pdce.SubmitResponse{ID: key, State: pdce.JobDone, Cached: true, TraceID: sp.TraceID()})
		return
	}

	state, dup, err := s.queue.Submit(key, prog.Name(), string(src), lang, o, queryDeadline(r), sp, requestIDFrom(r.Context()))
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "queue",
			"submission not accepted: "+err.Error(), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(pdce.SubmitResponse{ID: key, State: state, Duplicate: dup, TraceID: sp.TraceID()})
}

// handleResult reports one async job's state. The ack query parameter
// (1/true) acknowledges a terminal job: it is dropped from the queue's
// table and freed at the next log compaction. A job unknown to the
// queue (acked, or submitted before a cache-purging restart) still
// answers done when its result is in the content-addressed cache.
//
// Responses: 200 with pdce.JobResult, 404 for an unknown ID, 503 when
// the queue is disabled.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.stats.AddRequest()
	if s.queue == nil {
		s.httpError(w, http.StatusServiceUnavailable, "queue-disabled",
			"async queue is disabled (no -queue-dir)", "")
		return
	}
	id := r.PathValue("id")
	ackParam := r.URL.Query().Get("ack")
	ack := ackParam == "1" || ackParam == "true"
	res, ok := s.queue.Result(id, ack)
	if !ok {
		if body, hit := s.cache.Get(id); hit {
			s.stats.AddCacheHit()
			res = pdce.JobResult{ID: id, State: pdce.JobDone, Result: body}
		} else {
			s.httpError(w, http.StatusNotFound, "not-found", "unknown job id", "")
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// handleHealthz is the liveness probe. It stays green under load
// shedding (a full queue is capacity policy) and turns 503 "draining"
// once graceful shutdown begins, so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(pdce.HealthResponse{Status: "draining"})
		return
	}
	json.NewEncoder(w).Encode(pdce.HealthResponse{Status: "ok"})
}

// handleMetrics serves the merged observability snapshot. The format
// query parameter selects the encoding: JSON (default) or "prom", the
// Prometheus text exposition of the same snapshot (every numeric field
// becomes a pdce_-prefixed gauge), so operators can scrape pdced
// without a sidecar.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	active, queued := s.adm.Depth()
	maxInFlight, maxQueue := s.adm.Bounds()
	m := pdce.ServerMetrics{
		Server: s.stats.Snapshot(),
		Cache:  s.cache.Metrics(),
		Queue: pdce.QueueMetrics{
			Active:      active,
			Queued:      queued,
			MaxInFlight: maxInFlight,
			MaxQueue:    maxQueue,
			Draining:    s.Draining(),
		},
		UptimeMS: time.Since(s.started).Milliseconds(),
	}
	if s.queue != nil {
		snap := s.queue.Snapshot()
		m.JobQueue = &snap
	}
	if s.traces != nil {
		snap := s.traces.Snapshot()
		m.Traces = &snap
	}
	m.Store = s.storeSnapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, "pdce", m)
	default:
		s.httpError(w, http.StatusBadRequest, "bad-request",
			fmt.Sprintf("unknown format %q (want json or prom)", format), "")
	}
}

// --- plumbing ---------------------------------------------------------

// buildResponse assembles the wire result for one optimized program.
func (s *Server) buildResponse(name, key string, o pdce.Options, opt *pdce.Program, st pdce.Stats, explain string) pdce.OptimizeResponse {
	resp := pdce.OptimizeResponse{
		Name:    name,
		Key:     key,
		Mode:    o.Mode.String(),
		Program: opt.Format(),
		Listing: opt.String(),
		Stats:   st,
	}
	if explain != "" {
		resp.Explain = pdce.FormatExplain(explain, pdce.Explain(st.Telemetry, explain))
	}
	return resp
}

// serve writes a stored response body with its cache state header.
func (s *Server) serve(w http.ResponseWriter, body []byte, state pdce.CacheState) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pdced-Cache", string(state))
	w.Write(body)
}

// httpError writes the structured error body (pdce.ServerError wire
// shape) plus Retry-After on shedding statuses.
func (s *Server) httpError(w http.ResponseWriter, status int, kind, msg, bundle string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(pdce.ServerError{Kind: kind, Message: msg, ReproBundle: bundle})
}

// requestDeadline resolves the per-request deadline: the deadline_ms
// query parameter, else the server default.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	if d := queryDeadline(r); d > 0 {
		return d
	}
	return s.cfg.DefaultDeadline
}

// queryDeadline parses the deadline_ms query parameter: 0 when it is
// absent or not a positive integer.
func queryDeadline(r *http.Request) time.Duration {
	ms, err := strconv.ParseInt(r.URL.Query().Get("deadline_ms"), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// optionsFromQuery maps query parameters to pdce.Options; the string
// return is a user-facing validation error ("" = ok).
func optionsFromQuery(r *http.Request) (o pdce.Options, explain string, perr string) {
	q := r.URL.Query()
	switch q.Get("mode") {
	case "", "pde":
		o.Mode = pdce.Dead
	case "pfe":
		o.Mode = pdce.Faint
	default:
		return o, "", fmt.Sprintf("unknown mode %q (want pde or pfe)", q.Get("mode"))
	}
	if v := q.Get("max_rounds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return o, "", fmt.Sprintf("bad max_rounds %q", v)
		}
		o.MaxRounds = n
	}
	o.Telemetry = q.Get("telemetry") == "1" || q.Get("telemetry") == "true"
	o.Trace = q.Get("trace") == "1" || q.Get("trace") == "true"
	explain = q.Get("explain")
	if explain != "" {
		o.Trace = true // the provenance report needs the event stream
	}
	return o, explain, ""
}

// parseProgram mirrors cmd/pdce's front end: lang forces the language,
// otherwise the CFG format's keywords are sniffed.
func parseProgram(src, name, lang string) (*pdce.Program, error) {
	if lang == "" {
		lang = pdce.DetectLang(src)
	}
	switch lang {
	case "cfg":
		return pdce.ParseCFG(src)
	case "while":
		return pdce.ParseSource(name, src)
	default:
		return nil, fmt.Errorf("unknown lang %q (want cfg or while)", lang)
	}
}

// requestKey derives the cache key for one request: the program's
// content address, further hashed with the explain variable when one
// is requested (explain selects a different response body from the
// same telemetry, so it must address a distinct entry).
func requestKey(prog *pdce.Program, o pdce.Options, explain string) string {
	key := prog.CacheKey(o)
	if explain == "" {
		return key
	}
	h := sha256.Sum256([]byte(key + "|explain=" + explain))
	return hex.EncodeToString(h[:])
}

// errorKind classifies a degraded result's error for the wire.
func errorKind(err error) string {
	switch {
	case errors.Is(err, pdce.ErrDeadline):
		return "deadline"
	case errors.Is(err, pdce.ErrMiscompile):
		return "miscompile"
	case errors.Is(err, pdce.ErrPanic):
		return "panic"
	default:
		return "error"
	}
}
