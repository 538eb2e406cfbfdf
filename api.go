package pdce

import (
	"encoding/json"
	"fmt"

	"pdce/internal/obs"
)

// Wire types of the pdced optimization service (internal/server,
// cmd/pdced). They live in the public package so the server, the
// Client, and external consumers decode the same structs; the server
// imports this package, never the other way around.

// OptimizeResponse is the JSON body of a successful POST /optimize and
// of each entry of a batch response. For single requests the body is
// cached and replayed verbatim — a cache hit is byte-identical to the
// miss that filled it — so cache status travels out of band in the
// X-Pdced-Cache response header ("hit", "miss", or "dedup" for a
// request coalesced onto an identical in-flight computation).
type OptimizeResponse struct {
	// Name is the program name, Key its content address
	// (Program.CacheKey), Mode "pde" or "pfe".
	Name string `json:"name"`
	Key  string `json:"key"`
	Mode string `json:"mode"`
	// Program is the optimized program in the canonical CFG format
	// (parseable by ParseCFG); Listing is the human-readable rendering.
	Program string `json:"program"`
	Listing string `json:"listing"`
	Stats   Stats  `json:"stats"`
	// Degraded is true when the containment layer cut the run short:
	// the program is the best correct partial result, Error/ErrorKind
	// ("deadline" or "miscompile") say why. Degraded results are
	// served 200 but never cached.
	Degraded  bool   `json:"degraded,omitempty"`
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Explain carries the provenance report when the request asked for
	// one (?explain=var, PR-3's FormatExplain rendering).
	Explain string `json:"explain,omitempty"`
}

// CacheState is the X-Pdced-Cache header value of an optimize
// response.
type CacheState string

// Cache states.
const (
	CacheMiss  CacheState = "miss"
	CacheHit   CacheState = "hit"
	CacheDedup CacheState = "dedup"
)

// ServerError is a non-2xx pdced response: the decoded error body plus
// transport-level fields. It is what Client methods return for HTTP
// errors.
type ServerError struct {
	// Status is the HTTP status code: 400 bad request/parse failure,
	// 429 queue full, 500 contained optimizer panic, 503 draining.
	Status int `json:"-"`
	// Kind classifies the failure: "parse", "bad-request", "panic",
	// "queue-full", "draining".
	Kind    string `json:"kind,omitempty"`
	Message string `json:"error"`
	// ReproBundle is the server-side path of the repro bundle written
	// for a contained panic (500 only, empty when no directory is
	// configured).
	ReproBundle string `json:"repro_bundle,omitempty"`
	// RetryAfter is the Retry-After header in seconds (429/503), 0
	// when absent.
	RetryAfter int `json:"-"`
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("pdced: %d %s: %s", e.Status, e.Kind, e.Message)
}

// BatchProgram is one program of a batch optimize request.
type BatchProgram struct {
	Name string `json:"name"`
	// Source is the program text, WHILE-language or CFG format
	// (auto-detected).
	Source string `json:"source"`
}

// BatchOptimizeRequest is the JSON body of POST /optimize/batch.
type BatchOptimizeRequest struct {
	// Mode is "pde" (default) or "pfe".
	Mode string `json:"mode,omitempty"`
	// MaxRounds truncates each program's fixpoint (0 = optimum).
	MaxRounds int `json:"max_rounds,omitempty"`
	// DeadlineMS bounds each program's optimization (0 = the server's
	// default deadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Telemetry includes solver metrics in each result's Stats.
	Telemetry bool           `json:"telemetry,omitempty"`
	Programs  []BatchProgram `json:"programs"`
}

// BatchEntryResult is one program's outcome within a batch response.
type BatchEntryResult struct {
	OptimizeResponse
	// Cached is true when the entry was served from the result cache
	// (batch responses are assembled per request, so cache status is
	// in-band here, unlike single optimizes).
	Cached bool `json:"cached,omitempty"`
	// Shed is true when the admission gate rejected the program's job
	// (server at capacity); Error carries the reason and the entry has
	// no program.
	Shed bool `json:"shed,omitempty"`
}

// BatchOptimizeResponse is the JSON body of POST /optimize/batch.
// Results preserve request order.
type BatchOptimizeResponse struct {
	Results []BatchEntryResult `json:"results"`
	// Metrics aggregates the pool run behind the cache misses (absent
	// when every program was served from cache).
	Metrics *BatchMetrics `json:"metrics,omitempty"`
}

// ServerCounters is the request-level counter section of /metrics; see
// internal/obs.ServerSnapshot for field semantics.
type ServerCounters = obs.ServerSnapshot

// StoreMetrics is the shared L2 store section of /metrics; see
// internal/obs.StoreSnapshot for field semantics.
type StoreMetrics = obs.StoreSnapshot

// CacheMetrics is the result-cache section of /metrics.
type CacheMetrics struct {
	// Entries/Capacity are the in-memory LRU's current and maximum
	// entry counts across all shards.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Hits/Misses/Evictions are lifetime in-memory lookup outcomes;
	// SpillHits counts misses recovered from the disk-spill directory,
	// SpillCorrupt corrupted spill entries detected and quarantined.
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	SpillHits    int64 `json:"spill_hits"`
	SpillCorrupt int64 `json:"spill_corrupt"`
	// SpillSwept counts orphaned temp files (crash litter from torn
	// spill writes) removed at boot.
	SpillSwept int64 `json:"spill_swept"`
	// Rejected counts stored bodies refused on their way into L1: a
	// spill entry, an L2 read or a peer push that does not decode as
	// a result for its key, or whose program does not parse. The
	// request behind each one solves locally.
	Rejected int64 `json:"rejected"`
	// HitRate is (memory + spill hits)/lookups.
	HitRate float64 `json:"hit_rate"`
}

// QueueMetrics is the admission-control section of /metrics.
type QueueMetrics struct {
	// Active is the number of requests currently holding a work slot,
	// Queued the number waiting for one; MaxInFlight/MaxQueue are the
	// configured bounds.
	Active      int `json:"active"`
	Queued      int `json:"queued"`
	MaxInFlight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
	// Draining is true once graceful shutdown began: new work is
	// rejected 503 while in-flight requests complete.
	Draining bool `json:"draining"`
}

// ServerMetrics is the JSON body of GET /metrics.
type ServerMetrics struct {
	Server ServerCounters `json:"server"`
	Cache  CacheMetrics   `json:"cache"`
	Queue  QueueMetrics   `json:"queue"`
	// JobQueue is the durable async queue's section, absent when the
	// server runs without a queue directory.
	JobQueue *obs.QueueSnapshot `json:"job_queue,omitempty"`
	// Traces is the request-tracing section — store counters and
	// per-stage latency aggregates — absent when tracing is disabled.
	Traces *TraceStoreSnapshot `json:"traces,omitempty"`
	// Store is the shared L2 blob store's section — read/publish
	// counters and cluster-lease outcomes — absent when the server runs
	// without a -store backend.
	Store *StoreMetrics `json:"store,omitempty"`
	// UptimeMS is the wall time since the server was constructed.
	UptimeMS int64 `json:"uptime_ms"`
}

// Async job states reported by POST /optimize/submit and GET
// /optimize/result/{id}. A job moves queued → running → done, taking
// the failed state only after exhausting the server's retry budget
// (poisoned — parked for operator triage, it will not retry again).
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// SubmitResponse is the JSON body of POST /optimize/submit. A 202
// means the submission was durably logged (fsync'd) before the
// response was written: the job survives a server crash. A 200 with
// Cached true means the result already existed and no job was queued.
type SubmitResponse struct {
	// ID is the job identifier — the program's content address
	// (Program.CacheKey) — to poll at GET /optimize/result/{id}.
	ID string `json:"id"`
	// State is the job's state at submission time (JobQueued for a
	// fresh job; a duplicate reports the existing job's state).
	State string `json:"state"`
	// Cached is true when the result was already in the cache and the
	// submission short-circuited to done. Duplicate is true when an
	// identical job was already queued or finished; the submission
	// collapsed onto it.
	Cached    bool `json:"cached,omitempty"`
	Duplicate bool `json:"duplicate,omitempty"`
	// TraceID is the request trace the job was submitted under; the
	// job's asynchronous execution records its spans in the same
	// trace, so the ID stays queryable at /debug/traces/{id} across
	// retries and even a daemon restart.
	TraceID string `json:"trace_id,omitempty"`
}

// JobResult is the JSON body of GET /optimize/result/{id}.
type JobResult struct {
	ID string `json:"id"`
	// State is JobQueued, JobRunning, JobDone, or JobFailed.
	State string `json:"state"`
	// Attempts counts execution attempts so far; Error is the last
	// attempt's failure (set for failed jobs and between retries).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Result is the OptimizeResponse body for a done job, byte-identical
	// to what a synchronous POST /optimize of the same program returns.
	Result json.RawMessage `json:"result,omitempty"`
	// TraceID is the request trace the job executes under (see
	// SubmitResponse.TraceID).
	TraceID string `json:"trace_id,omitempty"`
}

// HealthResponse is the JSON body of GET /healthz: status "ok" (200)
// or "draining" (503). Health stays "ok" under load shedding — a
// saturated queue is capacity policy, not ill health.
type HealthResponse struct {
	Status string `json:"status"`
}
