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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"pdce"
	"pdce/internal/batch"
	"pdce/internal/obs"
	"pdce/internal/store"
)

// Serving policy every replica shares; no flag or Config field sets it.
const (
	maxBodyBytes      = 8 << 20 // cap on every request body but a peer PUT (store.MaxBlobBytes)
	maxPresize        = 1 << 20 // most a request's Content-Length allocates before its bytes arrive
	retryAfterSeconds = 1       // Retry-After on 429 and 503
)

// Config sizes one Server. The zero value is usable: every field has
// a sensible default applied by New.
type Config struct {
	// CacheEntries bounds the in-memory result cache (default 4096
	// entries across 16 shards) and the request memo beside it (memo.go);
	// SpillDir, when non-empty, persists results to disk so warm entries
	// survive restarts.
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
	// MaxInFlight). Each entry L1 misses takes the miss path /optimize
	// takes, admission slot included, so batches share the server-wide
	// budget.
	BatchWorkers int

	// QueueDir enables the durable async job queue (POST
	// /optimize/submit): accepted jobs are logged to a write-ahead log
	// under this directory, fsync'd before the 202, and replayed on
	// boot, so acknowledged submissions survive crash and redeploy.
	// Empty disables the async endpoints (they answer 503).
	QueueDir string
	// QueueWorkers sizes the queue's worker pool (default 2).
	QueueWorkers int

	// Store, when non-nil, is the shared L2 result store behind the
	// in-memory cache (see store.go): local misses consult it before
	// solving, local solves publish to it, and solve ownership for keys
	// no replica has published is arbitrated cluster-wide through TTL
	// leases over the same backend. pdce.CacheKeyVersion() prefixes
	// every store key, so replicas from different builds sharing one
	// store never serve each other's entries, and each boot leases
	// under a random owner id, so a restarted replica does not inherit
	// its predecessor's leases.
	Store store.Backend

	// LeaseTTL bounds how long a crashed replica's solve lease can
	// stall its key fleet-wide (default 3s).
	LeaseTTL time.Duration

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
	if c.QueueWorkers <= 0 {
		c.QueueWorkers = 2
	}
	if c.TraceCapacity == 0 {
		c.TraceCapacity = 512
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	return c
}

// Server is one pdced instance. Construct with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg    Config
	cache  *Cache
	memo   *lru[string] // request digest → cache key (memo.go)
	adm    *Admission
	stats  *obs.ServerStats
	queue  *Queue          // nil when Config.QueueDir is empty
	traces *obs.TraceStore // nil when Config.TraceCapacity < 0

	// Shared L2 store state; storeStats stays zero and lease nil when
	// Config.Store is nil.
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
		cfg:        cfg,
		cache:      cache,
		memo:       newLRU[string](cfg.CacheEntries),
		adm:        NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		stats:      &obs.ServerStats{},
		storeStats: &obs.StoreStats{},
		flight:     make(map[string]*flightCall),
		started:    time.Now(),
	}
	if cfg.TraceCapacity > 0 {
		s.traces = obs.NewTraceStore(cfg.TraceCapacity, cfg.TraceSample, cfg.TraceSeed)
	}
	if cfg.Store != nil {
		s.lease = store.NewLease(cfg.Store, randomOwner(), cfg.LeaseTTL, s.storeStats)
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

// Admission exposes the admission controller (tests).
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

// begin opens one /optimize, /optimize/batch or /optimize/submit
// request. Once drain began it answers 503 and returns ok false;
// otherwise it counts the request in flight and returns its start, and
// the caller defers end(start).
func (s *Server) begin(w http.ResponseWriter) (start time.Time, ok bool) {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		s.stats.ShedDraining.Add(1)
		s.httpError(w, http.StatusServiceUnavailable, "draining", "server is draining", "")
		return start, false
	}
	s.inflight.Add(1)
	s.drainMu.Unlock()
	return time.Now(), true
}

// end closes a request begin opened at start, recording its latency.
func (s *Server) end(start time.Time) {
	s.stats.RecordLatency(time.Since(start))
	s.inflight.Done()
}

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
	s.stats.Requests.Add(1)
	start, ok := s.begin(w)
	if !ok {
		return
	}
	defer s.end(start)
	sp := obs.SpanFromContext(r.Context())

	o, name, perr := optionsFromQuery(r)
	if perr != "" {
		s.httpError(w, http.StatusBadRequest, "bad-request", perr, "")
		return
	}
	src, err := readBody(w, r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), "")
		return
	}
	l, err := s.lookup(src, name, o, sp)
	if err != nil {
		s.stats.ParseFailures.Add(1)
		s.httpError(w, http.StatusBadRequest, "parse", err.Error(), "")
		return
	}
	if l.hit {
		s.stats.CacheHits.Add(1)
		s.serve(w, l.body, pdce.CacheHit)
		return
	}
	body, state, _, err := s.resolveMiss(r.Context(), l, o, requestIDFrom(r.Context()), sp)
	var pe *pdce.PanicError
	switch {
	case body != nil:
		// Stored, solved, or degraded by the watchdog or verified mode
		// (correct but partial, marked so in the body).
		s.serve(w, body, state)
	case errors.Is(err, ErrQueueFull):
		s.httpError(w, http.StatusTooManyRequests, "queue-full", "server at capacity, retry later", "")
	case errors.As(err, &pe):
		// A contained panic: 500 with the repro-bundle path.
		s.httpError(w, http.StatusInternalServerError, "panic", err.Error(), pe.Bundle)
	case r.Context().Err() != nil:
		s.httpError(w, http.StatusServiceUnavailable, "canceled", err.Error(), "")
	default:
		s.httpError(w, http.StatusInternalServerError, "internal", err.Error(), "")
	}
}

// handleBatch serves many programs in one request. Each entry is looked
// up in L1 like a POST /optimize; each entry L1 misses runs the miss
// path /optimize runs (resolveMiss) as one job of the internal/batch
// pool, at most Config.BatchWorkers at a time. Per-program outcomes
// (parse failure, shed, degraded, panic) are reported in their entries,
// so the call itself is 200 unless the request is malformed or the
// server is draining.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.Requests.Add(1)
	s.stats.BatchRequests.Add(1)
	start, ok := s.begin(w)
	if !ok {
		return
	}
	defer s.end(start)

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
	mode, err := parseMode(breq.Mode)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", err.Error(), "")
		return
	}
	ro := pdce.RequestOptions{
		Mode:      mode,
		MaxRounds: breq.MaxRounds,
		Deadline:  time.Duration(breq.DeadlineMS) * time.Millisecond,
		Telemetry: breq.Telemetry,
	}

	entries := make([]pdce.BatchEntryResult, len(breq.Programs))
	var missIdx []int
	var misses []cacheLookup
	for i, bp := range breq.Programs {
		e := &entries[i]
		e.Name = bp.Name
		if e.Name == "" {
			e.Name = fmt.Sprintf("program-%d", i)
		}
		e.Mode = mode.String()
		l, err := s.lookup(bp.Source, e.Name, ro, nil)
		switch {
		case err != nil:
			s.stats.ParseFailures.Add(1)
			e.Error, e.ErrorKind = err.Error(), "parse"
		case l.hit:
			s.stats.CacheHits.Add(1)
			fillEntry(e, l.body, pdce.CacheHit)
		default:
			e.Key = l.key
			missIdx = append(missIdx, i)
			misses = append(misses, l)
		}
	}

	resp := pdce.BatchOptimizeResponse{Results: entries}
	if len(misses) > 0 {
		// Each job traces as a "batch.job" child of the request's root
		// span, with the miss path's spans under it.
		ctx, sp, tag := r.Context(), obs.SpanFromContext(r.Context()), requestIDFrom(r.Context())
		admitted := make([]bool, len(misses))
		results := batch.Run(ctx, len(misses), s.cfg.BatchWorkers, nil, func(j, worker int) string {
			e := &entries[missIdx[j]]
			jsp := sp.Child("batch.job")
			jsp.SetAttr("program", e.Name)
			jsp.SetInt("worker", int64(worker))
			body, state, adm, err := s.resolveMiss(ctx, misses[j], ro, tag, jsp)
			admitted[j] = adm
			switch {
			case body != nil:
				fillEntry(e, body, state)
			case errors.Is(err, ErrQueueFull):
				e.Shed, e.Error, e.ErrorKind = true, err.Error(), "queue-full"
			default:
				e.Error, e.ErrorKind = err.Error(), pdce.ErrorKind(err)
			}
			if e.ErrorKind != "" {
				jsp.SetError(e.ErrorKind)
			}
			jsp.End()
			return e.ErrorKind
		})
		var ran []batch.Result
		for j, res := range results {
			switch {
			case admitted[j]:
				ran = append(ran, res)
			case res.Worker < 0:
				e := &entries[missIdx[j]]
				e.Error, e.ErrorKind = ctx.Err().Error(), pdce.ErrorKind(ctx.Err())
			}
		}
		if len(ran) > 0 {
			m := batch.ComputeMetrics(ran)
			resp.Metrics = &m
		}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "internal", err.Error(), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// fillEntry sets a batch entry from a served body: a cache hit or
// dedup is cached, a solve is not. Every body in L1 is pdced's own
// encoding of an OptimizeResponse or passed admitResult, so it
// decodes.
func fillEntry(e *pdce.BatchEntryResult, body []byte, state pdce.CacheState) {
	_ = json.Unmarshal(body, &e.OptimizeResponse)
	e.Cached = state != pdce.CacheMiss
}

// handleSubmit accepts one program for asynchronous optimization.
// Query parameters match /optimize minus explain (provenance reports
// are interactive-only). The job ID is the program's content address,
// so resubmitting the same program is idempotent: a duplicate answers
// 202 with the existing job's state, and a program whose result is
// already in L1 or the shared store answers 200 with state "done"
// without queueing anything.
//
// Responses: 202 with pdce.SubmitResponse once the submission is
// durably logged (fsync'd — the 202 is the durability promise), 200
// for an immediate cache hit, 400 for bad input, 500 when the log
// cannot be written, 503 when draining or the queue is disabled.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.Requests.Add(1)
	if s.queue == nil {
		s.httpError(w, http.StatusServiceUnavailable, "queue-disabled",
			"async queue is disabled (no -queue-dir)", "")
		return
	}
	start, ok := s.begin(w)
	if !ok {
		return
	}
	defer s.end(start)

	o, name, perr := optionsFromQuery(r)
	if perr != "" {
		s.httpError(w, http.StatusBadRequest, "bad-request", perr, "")
		return
	}
	if o.Explain != "" {
		s.httpError(w, http.StatusBadRequest, "bad-request",
			"explain is not supported on async submissions", "")
		return
	}
	src, err := readBody(w, r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), "")
		return
	}
	l, err := s.lookup(src, name, o, nil)
	if err != nil {
		s.stats.ParseFailures.Add(1)
		s.httpError(w, http.StatusBadRequest, "parse", err.Error(), "")
		return
	}

	sp := obs.SpanFromContext(r.Context())
	if !l.hit {
		_, l.hit = s.l2Get(l.key, sp)
	}
	if l.hit {
		// Already computed: answer done without consuming queue space.
		s.stats.CacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(pdce.SubmitResponse{ID: l.key, State: pdce.JobDone, Cached: true, TraceID: sp.TraceID()})
		return
	}

	state, dup, err := s.queue.Submit(l.key, l.prog.Name(), src, o, sp, requestIDFrom(r.Context()))
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "queue",
			"submission not accepted: "+err.Error(), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(pdce.SubmitResponse{ID: l.key, State: state, Duplicate: dup, TraceID: sp.TraceID()})
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
	s.stats.Requests.Add(1)
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
			s.stats.CacheHits.Add(1)
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

// serve writes a stored response body with its cache state header and
// its length, which lets pdce.Client size its read buffer.
func (s *Server) serve(w http.ResponseWriter, body []byte, state pdce.CacheState) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pdced-Cache", string(state))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// readBody reads a request body of at most maxBodyBytes into one buffer
// presized from its Content-Length and returns it as a string over that
// buffer, which nothing writes afterwards, so the body is not copied
// again.
func readBody(w http.ResponseWriter, r *http.Request) (string, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return "", err
	}
	return unsafe.String(unsafe.SliceData(buf.Bytes()), buf.Len()), nil
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

// withDeadline bounds ctx by a request's deadline d, or by the server's
// default deadline when d is not positive; with neither it returns ctx.
func (s *Server) withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// optionsFromQuery maps a request's query parameters to its options
// and program name; perr is a user-facing validation error ("" = ok).
// A deadline_ms that is absent or not a positive integer leaves the
// server's default deadline.
func optionsFromQuery(r *http.Request) (o pdce.RequestOptions, name, perr string) {
	q := r.URL.Query()
	var err error
	if o.Mode, err = parseMode(q.Get("mode")); err != nil {
		return o, "", err.Error()
	}
	if v := q.Get("max_rounds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return o, "", fmt.Sprintf("bad max_rounds %q", v)
		}
		o.MaxRounds = n
	}
	if ms, err := strconv.ParseInt(q.Get("deadline_ms"), 10, 64); err == nil && ms > 0 {
		o.Deadline = time.Duration(ms) * time.Millisecond
	}
	o.Telemetry = q.Get("telemetry") == "1" || q.Get("telemetry") == "true"
	o.Trace = q.Get("trace") == "1" || q.Get("trace") == "true"
	o.Explain = q.Get("explain")
	o.Lang = q.Get("lang")
	return o, q.Get("name"), ""
}

// parseMode maps a request's mode name to its pdce.Mode: "" and "pde"
// are Dead, "pfe" is Faint.
func parseMode(name string) (pdce.Mode, error) {
	switch name {
	case "", "pde":
		return pdce.Dead, nil
	case "pfe":
		return pdce.Faint, nil
	}
	return pdce.Dead, fmt.Errorf("unknown mode %q (want pde or pfe)", name)
}
