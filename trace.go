package pdce

import (
	"context"

	"pdce/internal/obs"
)

// Request tracing (distinct from the provenance TraceEvent stream):
// spans describe where one request spent its time across the serving
// stack — pool routing, retries, admission, cache, queue, and the
// solver's fixpoint rounds — propagated over HTTP in the W3C
// traceparent header and retained in a tail-sampled TraceStore. The
// types are aliases of internal/obs so the client, pool, and server
// share one implementation.

// Span is one live span of a request trace. Nil-safe: every method on
// a nil *Span is a no-op, so untraced paths cost one pointer check.
type Span = obs.Span

// SpanContext is a span's wire identity (trace ID + span ID), carried
// in the traceparent header.
type SpanContext = obs.SpanContext

// SpanRecord is one finished span's frozen wire form.
type SpanRecord = obs.SpanRecord

// TraceStore is the bounded, tail-sampled in-process trace store. A
// nil *TraceStore means "tracing off" and is valid everywhere one is
// accepted.
type TraceStore = obs.TraceStore

// TraceSummary, TraceList, and TraceDump are the /debug/traces wire
// shapes; TraceStoreSnapshot is the "traces" section of /metrics.
type (
	TraceSummary       = obs.TraceSummary
	TraceList          = obs.TraceList
	TraceDump          = obs.TraceDump
	TraceStoreSnapshot = obs.TraceStoreSnapshot
	StageStats         = obs.StageStats
)

// NewTraceStore builds a trace store retaining at most capacity traces
// (<=0 selects 512). sample is the keep probability for unremarkable
// traces; error and p99-slow traces are always kept. seed fixes the
// sampling RNG (0 = wall clock).
func NewTraceStore(capacity int, sample float64, seed int64) *TraceStore {
	return obs.NewTraceStore(capacity, sample, seed)
}

// ParseTraceparent decodes a W3C traceparent header value.
func ParseTraceparent(s string) (SpanContext, bool) { return obs.ParseTraceparent(s) }

// ContextWithSpan attaches a span to a context; every Client call
// propagates the span's identity as the request's traceparent header.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return obs.ContextWithSpan(ctx, s)
}

// SpanFromContext returns the span attached to ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFromContext(ctx) }
