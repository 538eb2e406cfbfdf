package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Request tracing.
//
// The provenance Trace (trace.go) explains what one optimizer run did
// to one program; the types here explain where one *request* spent its
// time across the whole serving stack — pool routing, retries and
// hedges, server admission, cache, singleflight, the durable queue's
// fsync and workers, and the solver's fixpoint rounds. A request is a
// tree of Spans sharing one trace ID, propagated over the wire in the
// W3C traceparent header so client- and server-side spans land in the
// same tree, and finalized into a bounded TraceStore with tail-based
// sampling: the decision to keep a trace is made when its root span
// ends, so error, shed, poisoned, and p99-slow traces are always
// retained while unremarkable ones are down-sampled.
//
// Like the solver's collectors, the span layer is nil-safe: every
// method on a nil *Span or nil *TraceStore is a no-op, so a server or
// pool running with tracing disabled pays a single nil check per
// boundary and allocates nothing.

// SpanContext identifies one span on the wire: a 16-byte trace ID and
// an 8-byte span ID, lowercase hex. The zero value is "no context".
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool {
	return isHex(sc.TraceID, 32) && sc.TraceID != zeroTraceID
}

// Traceparent renders the W3C trace-context header value
// (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	spanID := sc.SpanID
	if !isHex(spanID, 16) {
		spanID = zeroSpanID
	}
	return "00-" + sc.TraceID + "-" + spanID + "-01"
}

const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"
)

// ParseTraceparent decodes a W3C traceparent header value. Unknown
// versions are accepted as long as the field layout matches (the spec's
// forward-compatibility rule): a later version may append fields after
// another "-", while version 00 is exactly 55 bytes. A malformed or
// all-zero value returns ok false.
func ParseTraceparent(s string) (SpanContext, bool) {
	// version "-" traceid(32) "-" spanid(16) "-" flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if !isHex(s[:2], 2) || s[:2] == "ff" || !isHex(s[53:55], 2) {
		return SpanContext{}, false
	}
	if len(s) > 55 && (s[:2] == "00" || s[55] != '-') {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !isHex(sc.TraceID, 32) || !isHex(sc.SpanID, 16) {
		return SpanContext{}, false
	}
	if sc.TraceID == zeroTraceID || sc.SpanID == zeroSpanID {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewTraceID returns a fresh 16-byte trace ID in hex.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a fresh 8-byte span ID in hex.
func NewSpanID() string { return randHex(8) }

// NewRequestID returns a fresh 8-byte request ID in hex — the value
// echoed in the Pdce-Request-Id header.
func NewRequestID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// SpanRecord is one finished span's frozen wire form — the element of
// GET /debug/traces/{id} and POST /debug/traces payloads. The shape is
// pinned by the golden trace schema; extend it and the schema together.
type SpanRecord struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// ParentID is empty for root spans. A span whose parent is absent
	// from the store (lost to a crash or recorded on another process)
	// renders as a root of the reassembled tree.
	ParentID string `json:"parent_id,omitempty"`
	// Name is the stage ("client.attempt", "server.optimize", "solve",
	// "solve.round", "queue.execute", ...); Service the emitting side
	// ("pool" or "pdced").
	Name    string `json:"name"`
	Service string `json:"service"`
	// StartUnixNS is the span's start as unix nanoseconds; DurationNS
	// its wall-clock length.
	StartUnixNS int64 `json:"start_unix_ns"`
	DurationNS  int64 `json:"duration_ns"`
	// Attrs carries small string attributes (replica, attempt number,
	// cache state, rounds). Error classifies a failed span ("shed",
	// "panic", "poisoned", ...); empty means success.
	Attrs map[string]string `json:"attrs,omitempty"`
	Error string            `json:"error,omitempty"`
	// LinkTraceID/LinkSpanID point at a causally-related span in
	// another lifetime — a queue job replayed after a daemon restart
	// links back to the submission span recorded in the WAL.
	LinkTraceID string `json:"link_trace_id,omitempty"`
	LinkSpanID  string `json:"link_span_id,omitempty"`
}

// Span is one live (unfinished) span. Create roots with
// TraceStore.StartSpan and children with Child; End finalizes the span
// into the store. All methods are nil-safe and safe for concurrent
// use.
type Span struct {
	store *TraceStore
	root  bool

	mu    sync.Mutex
	rec   SpanRecord
	start time.Time
	ended bool
}

// StartSpan opens a root span: the span that decides, when it ends,
// whether its trace is retained (tail sampling). With a valid parent
// context the span joins that trace (and records the parent); without
// one it starts a fresh trace. A nil store returns a nil span, on
// which every method is a no-op.
func (ts *TraceStore) StartSpan(name, service string, parent SpanContext) *Span {
	if ts == nil {
		return nil
	}
	s := &Span{
		store: ts,
		root:  true,
		start: time.Now(),
	}
	s.rec = SpanRecord{
		SpanID:      NewSpanID(),
		Name:        name,
		Service:     service,
		StartUnixNS: s.start.UnixNano(),
	}
	if parent.Valid() {
		s.rec.TraceID = parent.TraceID
		if isHex(parent.SpanID, 16) && parent.SpanID != zeroSpanID {
			s.rec.ParentID = parent.SpanID
		}
	} else {
		s.rec.TraceID = NewTraceID()
	}
	return s
}

// Child opens a sub-span of s in the same trace. Nil-safe: a nil
// receiver returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	traceID, parentID, service := s.rec.TraceID, s.rec.SpanID, s.rec.Service
	s.mu.Unlock()
	c := &Span{store: s.store, start: time.Now()}
	c.rec = SpanRecord{
		TraceID:     traceID,
		SpanID:      NewSpanID(),
		ParentID:    parentID,
		Name:        name,
		Service:     service,
		StartUnixNS: c.start.UnixNano(),
	}
	return c
}

// Context returns the span's wire identity (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// TraceID returns the span's trace ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec.TraceID
}

// SetAttr records one string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.rec.Attrs == nil {
		s.rec.Attrs = make(map[string]string, 4)
	}
	s.rec.Attrs[key] = value
	s.mu.Unlock()
}

// SetInt records one integer attribute.
func (s *Span) SetInt(key string, value int64) {
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetError classifies the span as failed. On a root span a non-empty
// class makes the trace an always-keep for tail sampling.
func (s *Span) SetError(class string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Error = class
	s.mu.Unlock()
}

// SetLink records a causal link to a span from another lifetime.
func (s *Span) SetLink(sc SpanContext) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.LinkTraceID = sc.TraceID
	s.rec.LinkSpanID = sc.SpanID
	s.mu.Unlock()
}

// End finalizes the span into its store. Idempotent; a root span's End
// runs the tail-sampling decision for its whole trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.DurationNS = int64(time.Since(s.start))
	rec := s.rec
	root := s.root
	s.mu.Unlock()
	s.store.finish(rec, root)
}

// --- trace store ------------------------------------------------------

// traceEntry is one retained trace.
type traceEntry struct {
	spans []SpanRecord
	// root summarizes the deciding root span for listings.
	rootName    string
	rootError   string
	startUnixNS int64
	durationNS  int64
}

// Store sizing that is policy, not configuration: bounds chosen so the
// store's worst case stays a few megabytes regardless of traffic.
const (
	spansPerTraceCap = 256  // spans retained per trace
	droppedIDsCap    = 4096 // remembered sampled-out trace IDs
	stageNamesCap    = 128  // distinct stage names aggregated
	stageWindow      = 256  // latency window per stage
	slowMinSamples   = 64   // roots seen before the p99 gate activates
)

// TraceStore is the bounded in-process trace store with tail-based
// sampling. Construct with NewTraceStore; a nil store is a valid
// "tracing off" value (StartSpan returns nil, every query is empty).
type TraceStore struct {
	// stats holds the counters, bumped under mu; Snapshot adds the
	// gauges and stage aggregates. It comes first so that its Count
	// fields are 64-bit aligned (Count).
	stats TraceStoreSnapshot

	mu sync.Mutex

	capacity int
	sample   float64
	rngState uint64

	pending      map[string][]SpanRecord // traces whose root has not ended
	pendingOrder []string
	kept         map[string]*traceEntry
	keptOrder    []string
	dropped      map[string]bool // sampled-out IDs: late spans are discarded
	droppedOrder []string

	roots  window // root durations backing the p99-slow gate
	stages map[string]*window
}

// NewTraceStore builds a store retaining at most capacity traces
// (<=0 selects 512). sample is the keep probability for unremarkable
// traces in [0,1]; error and p99-slow traces are always kept. seed
// fixes the sampling RNG (0 = wall clock) for reproducible tests.
func NewTraceStore(capacity int, sample float64, seed int64) *TraceStore {
	if capacity <= 0 {
		capacity = 512
	}
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &TraceStore{
		capacity: capacity,
		sample:   sample,
		rngState: uint64(seed),
		pending:  make(map[string][]SpanRecord),
		kept:     make(map[string]*traceEntry),
		dropped:  make(map[string]bool),
		stages:   make(map[string]*window),
	}
}

// rng is a splitmix64 step — enough randomness for sampling without
// dragging in math/rand state.
func (ts *TraceStore) rng() float64 {
	ts.rngState += 0x9e3779b97f4a7c15
	z := ts.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// finish records one ended span. Root spans run the retention decision
// for their trace.
func (ts *TraceStore) finish(rec SpanRecord, root bool) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.retainLocked(rec, root)
}

// retainLocked is the one retention step for an ended span, local or
// ingested: it feeds the stage window, appends to a kept trace,
// discards into a sampled-out one, and otherwise buffers the span,
// running the retention decision when it is a root. Caller holds
// ts.mu.
func (ts *TraceStore) retainLocked(rec SpanRecord, root bool) {
	ts.recordStage(rec.Name, rec.DurationNS)
	if e, ok := ts.kept[rec.TraceID]; ok {
		appendSpan(e, rec)
		return
	}
	if ts.dropped[rec.TraceID] {
		if root && rec.Error != "" {
			// A later root errored (a queue job poisoned after its
			// submission trace was sampled out): resurrect the trace —
			// error traces are always-keep, whatever came before.
			delete(ts.dropped, rec.TraceID)
			ts.decide(rec, []SpanRecord{rec})
		}
		return
	}
	buf := ts.bufferPending(rec)
	if root {
		delete(ts.pending, rec.TraceID)
		ts.decide(rec, buf)
	}
}

// bufferPending stashes rec with its trace's undecided spans, evicting
// the oldest pending trace beyond capacity, and returns the buffer.
func (ts *TraceStore) bufferPending(rec SpanRecord) []SpanRecord {
	buf, ok := ts.pending[rec.TraceID]
	if !ok {
		if len(ts.pendingOrder) >= ts.capacity {
			oldest := ts.pendingOrder[0]
			ts.pendingOrder = ts.pendingOrder[1:]
			delete(ts.pending, oldest)
		}
		ts.pendingOrder = append(ts.pendingOrder, rec.TraceID)
	}
	if len(buf) < spansPerTraceCap {
		buf = append(buf, rec)
	}
	ts.pending[rec.TraceID] = buf
	return buf
}

// decide runs tail sampling for one trace, given its deciding root
// record and buffered spans. Caller holds ts.mu.
func (ts *TraceStore) decide(root SpanRecord, spans []SpanRecord) {
	ts.stats.Decided.Add(1)
	keep := false
	switch {
	case root.Error != "":
		keep = true
		ts.stats.KeptErrors.Add(1)
	case ts.isSlowLocked(root.DurationNS):
		keep = true
		ts.stats.KeptSlow.Add(1)
	default:
		keep = ts.sample > 0 && ts.rng() < ts.sample
	}
	// The threshold must not see the deciding duration: feed the
	// window after the comparison.
	ts.roots.record(root.DurationNS)
	if !keep {
		ts.stats.SampledOut.Add(1)
		if len(ts.droppedOrder) >= droppedIDsCap {
			oldest := ts.droppedOrder[0]
			ts.droppedOrder = ts.droppedOrder[1:]
			delete(ts.dropped, oldest)
		}
		ts.dropped[root.TraceID] = true
		ts.droppedOrder = append(ts.droppedOrder, root.TraceID)
		return
	}
	ts.stats.Kept.Add(1)
	e := &traceEntry{
		rootName:    root.Name,
		rootError:   root.Error,
		startUnixNS: root.StartUnixNS,
		durationNS:  root.DurationNS,
	}
	e.spans = append(e.spans, spans...)
	ts.kept[root.TraceID] = e
	ts.keptOrder = append(ts.keptOrder, root.TraceID)
	for len(ts.keptOrder) > ts.capacity {
		oldest := ts.keptOrder[0]
		ts.keptOrder = ts.keptOrder[1:]
		delete(ts.kept, oldest)
		ts.stats.Evicted.Add(1)
	}
}

// isSlowLocked reports whether a root duration clears the p99-slow
// gate.
func (ts *TraceStore) isSlowLocked(d int64) bool {
	threshold, active := ts.slowThresholdLocked()
	return active && d >= threshold
}

// slowThresholdLocked returns the p99 of the recent root durations;
// the gate is inactive until slowMinSamples roots have been seen.
func (ts *TraceStore) slowThresholdLocked() (threshold int64, active bool) {
	p99, count := ts.roots.p99()
	return p99, count >= slowMinSamples
}

func appendSpan(e *traceEntry, rec SpanRecord) {
	if len(e.spans) < spansPerTraceCap {
		e.spans = append(e.spans, rec)
	}
}

// recordStage folds one span into its stage's latency window. Caller
// holds ts.mu.
func (ts *TraceStore) recordStage(name string, d int64) {
	w, ok := ts.stages[name]
	if !ok {
		if len(ts.stages) >= stageNamesCap {
			return
		}
		w = &window{size: stageWindow}
		ts.stages[name] = w
	}
	w.record(d)
}

// Ingest merges externally-recorded spans — the pool client POSTs its
// side of each request here so /debug/traces/{id} shows one tree
// spanning both processes. Spans of a kept trace are appended; spans
// of a sampled-out trace are discarded; spans of an unknown trace are
// buffered, and a root among them finalizes the trace exactly like a
// local root ending. Malformed records (bad IDs, no name, a negative
// duration) are skipped; the count of accepted records is returned.
func (ts *TraceStore) Ingest(recs []SpanRecord) int {
	if ts == nil || len(recs) == 0 {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for _, rec := range recs {
		if !isHex(rec.TraceID, 32) || !isHex(rec.SpanID, 16) || rec.Name == "" || rec.DurationNS < 0 {
			continue
		}
		n++
		ts.stats.IngestedSpans.Add(1)
		// A rootless batch stays pending until some root arrives.
		ts.retainLocked(rec, rec.ParentID == "")
	}
	return n
}

// TraceSummary is one retained trace's listing row (GET /debug/traces).
type TraceSummary struct {
	TraceID     string `json:"trace_id"`
	Root        string `json:"root"`
	Spans       int    `json:"spans"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	Error       string `json:"error,omitempty"`
}

// TraceList is the JSON body of GET /debug/traces.
type TraceList struct {
	Traces []TraceSummary `json:"traces"`
}

// Summaries lists retained traces, newest first, at most limit rows
// (<=0 = all).
func (ts *TraceStore) Summaries(limit int) TraceList {
	out := TraceList{Traces: []TraceSummary{}}
	if ts == nil {
		return out
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i := len(ts.keptOrder) - 1; i >= 0; i-- {
		if limit > 0 && len(out.Traces) >= limit {
			break
		}
		id := ts.keptOrder[i]
		e, ok := ts.kept[id]
		if !ok {
			continue
		}
		out.Traces = append(out.Traces, TraceSummary{
			TraceID:     id,
			Root:        e.rootName,
			Spans:       len(e.spans),
			StartUnixNS: e.startUnixNS,
			DurationNS:  e.durationNS,
			Error:       e.rootError,
		})
	}
	return out
}

// TraceDump is the JSON body of GET /debug/traces/{id}: the trace's
// spans, parent IDs encoding the tree, ordered by start time.
type TraceDump struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
}

// Get returns one retained trace's spans (start-ordered), or ok false.
func (ts *TraceStore) Get(id string) (TraceDump, bool) {
	if ts == nil {
		return TraceDump{}, false
	}
	ts.mu.Lock()
	e, ok := ts.kept[id]
	if !ok {
		ts.mu.Unlock()
		return TraceDump{}, false
	}
	spans := make([]SpanRecord, len(e.spans))
	copy(spans, e.spans)
	ts.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUnixNS < spans[j].StartUnixNS })
	return TraceDump{TraceID: id, Spans: spans}, true
}

// Export is Get for span shipping: the records of a retained trace
// (nil when the trace was sampled out or is unknown).
func (ts *TraceStore) Export(id string) []SpanRecord {
	dump, ok := ts.Get(id)
	if !ok {
		return nil
	}
	return dump.Spans
}

// StageStats is one stage name's latency aggregate in the snapshot:
// Count is the lifetime span count; the percentiles and MaxNS cover
// the stage's recent window (the last stageWindow spans).
type StageStats struct {
	Count int64 `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	MaxNS int64 `json:"max_ns"`
}

// TraceStoreSnapshot is the "traces" section of pdced's /metrics, and
// the declaration of TraceStore's counters.
type TraceStoreSnapshot struct {
	// Traces is the retained count; Capacity the bound.
	Traces   int `json:"traces"`
	Capacity int `json:"capacity"`
	// Decided counts finalized traces; Kept the retained subset, split
	// into always-keeps (errors, p99-slow) and sampled keeps by the
	// KeptErrors/KeptSlow counters. SampledOut + Kept = Decided.
	Decided    Count `json:"decided"`
	Kept       Count `json:"kept"`
	KeptErrors Count `json:"kept_errors"`
	KeptSlow   Count `json:"kept_slow"`
	SampledOut Count `json:"sampled_out"`
	// Evicted counts retained traces pushed out by capacity;
	// IngestedSpans the spans merged via Ingest (client-side exports).
	Evicted       Count `json:"evicted"`
	IngestedSpans Count `json:"ingested_spans"`
	// SampleRate is the configured keep probability for unremarkable
	// traces; SlowThresholdNS the current p99-slow gate (0 until
	// enough roots have been observed).
	SampleRate      float64 `json:"sample_rate"`
	SlowThresholdNS int64   `json:"slow_threshold_ns"`
	// Stages maps stage names to latency aggregates over each stage's
	// recent spans (per-stage p50/p95/max: queue-wait, cache lookups,
	// solve time, ...).
	Stages map[string]StageStats `json:"stages,omitempty"`
}

// Snapshot freezes the store's counters and per-stage aggregates.
// Nil-safe: a nil store yields a zero snapshot.
func (ts *TraceStore) Snapshot() TraceStoreSnapshot {
	if ts == nil {
		return TraceStoreSnapshot{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	snap := Freeze(&ts.stats)
	snap.Traces, snap.Capacity, snap.SampleRate = len(ts.kept), ts.capacity, ts.sample
	if threshold, active := ts.slowThresholdLocked(); active {
		snap.SlowThresholdNS = threshold
	}
	if len(ts.stages) > 0 {
		snap.Stages = make(map[string]StageStats, len(ts.stages))
		for name, w := range ts.stages {
			st := w.stats()
			snap.Stages[name] = StageStats{Count: st.count, P50NS: st.p50, P95NS: st.p95, MaxNS: st.max}
		}
	}
	return snap
}

// --- context plumbing -------------------------------------------------

type spanCtxKey struct{}

// ContextWithSpan attaches a span to a context so lower layers (the
// HTTP client, nested optimizer calls) can pick it up.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span attached to ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
