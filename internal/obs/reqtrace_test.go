package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// mkRec builds a synthetic finished span for Ingest-driven tests —
// feeding records directly is the only way to control durations, which
// the tail sampler's slow gate keys on.
func mkRec(traceID, spanID, parentID, name string, durNS int64, errClass string) SpanRecord {
	return SpanRecord{
		TraceID:     traceID,
		SpanID:      spanID,
		ParentID:    parentID,
		Name:        name,
		Service:     "test",
		StartUnixNS: 1,
		DurationNS:  durNS,
		Error:       errClass,
	}
}

// tid/sid render deterministic well-formed IDs from a small integer.
func tid(n int) string { return strings.Repeat("0", 24) + padHex8(n) }
func sid(n int) string { return strings.Repeat("0", 8) + padHex8(n) }

func padHex8(n int) string {
	const hexdig = "0123456789abcdef"
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = hexdig[n&0xf]
		n >>= 4
	}
	return string(out)
}

// Traceparent values the parser must accept and reject. The round-trip
// test asserts them and the fuzzer starts from them.
var (
	goodTraceparents = []string{
		"00-" + tid(7) + "-" + sid(9) + "-01",
		// Later versions parse, with or without appended fields (W3C
		// forward compatibility).
		"cc-" + tid(7) + "-" + sid(9) + "-01",
		"cc-" + tid(7) + "-" + sid(9) + "-01-what",
	}
	badTraceparents = []string{
		"",
		"00-" + tid(7) + "-" + sid(9),         // truncated
		"ff-" + tid(7) + "-" + sid(9) + "-01", // forbidden version
		"00-" + zeroTraceID + "-" + sid(9) + "-01",              // zero trace
		"00-" + tid(7) + "-" + zeroSpanID + "-01",               // zero span
		"00-ABCDEF00000000000000000000000007-" + sid(9) + "-01", // uppercase hex
		"00_" + tid(7) + "-" + sid(9) + "-01",                   // wrong separator
		"00-" + tid(7) + "-" + sid(9) + "-zz",                   // flags not hex
		"00-" + tid(7) + "-" + sid(9) + "-01-extra",             // version 00 with a trailing field
		"00-" + tid(7) + "-" + sid(9) + "-01garbage",            // version 00 with trailing bytes
		"cc-" + tid(7) + "-" + sid(9) + "-01xyz",                // later version, no "-" after the flags
	}
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: tid(7), SpanID: sid(9)}
	back, ok := ParseTraceparent(sc.Traceparent())
	if !ok || back != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", back, ok, sc)
	}
	for _, s := range goodTraceparents {
		if _, ok := ParseTraceparent(s); !ok {
			t.Errorf("ParseTraceparent(%q) rejected", s)
		}
	}
	for _, s := range badTraceparents {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
}

// FuzzTraceparent feeds arbitrary header values to the parser, which
// reads them straight off the wire. It must never panic, and whatever
// it accepts must be a valid context that survives a round trip; a
// version-00 value it accepts is exactly 55 bytes with hex flags.
func FuzzTraceparent(f *testing.F) {
	for _, s := range goodTraceparents {
		f.Add(s)
	}
	for _, s := range badTraceparents {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, sc)
		}
		if back, ok := ParseTraceparent(sc.Traceparent()); !ok || back != sc {
			t.Fatalf("accepted %q, but its rendering %q parses to %+v ok=%v", s, sc.Traceparent(), back, ok)
		}
		if strings.HasPrefix(s, "00") && (len(s) != 55 || !isHex(s[53:], 2)) {
			t.Fatalf("accepted a malformed version-00 value %q", s)
		}
	})
}

func TestSpanTreeAndRetention(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	root := ts.StartSpan("server.optimize", "pdced", SpanContext{})
	root.SetAttr("request_id", "abc")
	child := root.Child("solve")
	grand := child.Child("solve.round")
	grand.SetInt("round", 1)
	grand.End()
	child.End()
	root.End()

	dump, ok := ts.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not retained with sample=1")
	}
	if len(dump.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(dump.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range dump.Spans {
		if s.TraceID != root.TraceID() {
			t.Errorf("span %s has trace %s", s.Name, s.TraceID)
		}
		byName[s.Name] = s
	}
	if byName["server.optimize"].ParentID != "" {
		t.Error("root has a parent")
	}
	if byName["solve"].ParentID != byName["server.optimize"].SpanID {
		t.Error("solve is not a child of the root")
	}
	if byName["solve.round"].ParentID != byName["solve"].SpanID {
		t.Error("solve.round is not a child of solve")
	}
	if byName["solve.round"].Attrs["round"] != "1" {
		t.Errorf("round attr = %q", byName["solve.round"].Attrs["round"])
	}
	if list := ts.Summaries(0); len(list.Traces) != 1 || list.Traces[0].Spans != 3 {
		t.Errorf("summaries = %+v", list)
	}
}

func TestSpanJoinsParentContext(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	parent := SpanContext{TraceID: tid(3), SpanID: sid(4)}
	root := ts.StartSpan("server.optimize", "pdced", parent)
	if root.TraceID() != parent.TraceID {
		t.Fatalf("root trace %s, want joined %s", root.TraceID(), parent.TraceID)
	}
	root.End()
	dump, _ := ts.Get(parent.TraceID)
	if len(dump.Spans) != 1 || dump.Spans[0].ParentID != parent.SpanID {
		t.Fatalf("joined span = %+v", dump.Spans)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	root := ts.StartSpan("r", "t", SpanContext{})
	root.End()
	root.End()
	if snap := ts.Snapshot(); snap.Decided != 1 {
		t.Fatalf("double End decided %d traces", snap.Decided)
	}
}

func TestNilSpanAndStoreSafe(t *testing.T) {
	var ts *TraceStore
	sp := ts.StartSpan("x", "y", SpanContext{})
	if sp != nil {
		t.Fatal("nil store made a span")
	}
	// All of these must be no-ops, not panics.
	sp.SetAttr("k", "v")
	sp.SetInt("k", 1)
	sp.SetError("boom")
	sp.SetLink(SpanContext{})
	sp.End()
	if c := sp.Child("z"); c != nil {
		t.Fatal("nil span made a child")
	}
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil span has identity")
	}
	if ts.Ingest([]SpanRecord{mkRec(tid(1), sid(1), "", "r", 1, "")}) != 0 {
		t.Fatal("nil store ingested")
	}
	if _, ok := ts.Get(tid(1)); ok {
		t.Fatal("nil store returned a trace")
	}
	ts.Snapshot()
	ts.Summaries(0)
}

func TestTailSamplingSampleOutAndErrorKeep(t *testing.T) {
	ts := NewTraceStore(64, 0, 42) // sample 0: only always-keeps survive
	for i := 1; i <= 10; i++ {
		ts.Ingest([]SpanRecord{mkRec(tid(i), sid(i), "", "r", 100, "")})
	}
	if snap := ts.Snapshot(); snap.Kept != 0 || snap.SampledOut != 10 {
		t.Fatalf("sample=0 kept %d, sampled out %d", snap.Kept, snap.SampledOut)
	}
	// A late span of a sampled-out trace is discarded, not resurrected.
	ts.Ingest([]SpanRecord{mkRec(tid(1), sid(99), sid(1), "late", 1, "")})
	if _, ok := ts.Get(tid(1)); ok {
		t.Fatal("late child resurrected a dropped trace")
	}
	// An errored root is always kept, whatever the sample rate.
	ts.Ingest([]SpanRecord{mkRec(tid(11), sid(11), "", "r", 100, "shed")})
	dump, ok := ts.Get(tid(11))
	if !ok {
		t.Fatal("error trace sampled out")
	}
	if dump.Spans[0].Error != "shed" {
		t.Fatalf("error class = %q", dump.Spans[0].Error)
	}
	snap := ts.Snapshot()
	if snap.KeptErrors != 1 {
		t.Errorf("kept_errors = %d", snap.KeptErrors)
	}
}

func TestTailSamplingErrorResurrection(t *testing.T) {
	ts := NewTraceStore(64, 0, 42)
	// The submission trace is sampled out...
	ts.Ingest([]SpanRecord{mkRec(tid(1), sid(1), "", "server.optimize.submit", 100, "")})
	if _, ok := ts.Get(tid(1)); ok {
		t.Fatal("premise: trace should be dropped")
	}
	// ...then the queue job poisons: the later ERRORED root resurrects
	// the trace — poison traces must be inspectable.
	ts.Ingest([]SpanRecord{mkRec(tid(1), sid(2), "", "queue.execute", 100, "poisoned")})
	dump, ok := ts.Get(tid(1))
	if !ok {
		t.Fatal("poisoned root did not resurrect the dropped trace")
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Error != "poisoned" {
		t.Fatalf("resurrected trace = %+v", dump.Spans)
	}
}

func TestTailSamplingSlowKeep(t *testing.T) {
	ts := NewTraceStore(1024, 0, 42)
	// Establish a latency baseline of 100ns roots (past the activation
	// threshold), then finish one far above p99: kept as slow.
	for i := 1; i <= slowMinSamples; i++ {
		ts.Ingest([]SpanRecord{mkRec(tid(i), sid(i), "", "r", 100, "")})
	}
	ts.Ingest([]SpanRecord{mkRec(tid(999), sid(999), "", "r", 1_000_000, "")})
	if _, ok := ts.Get(tid(999)); !ok {
		t.Fatal("p99-slow trace sampled out")
	}
	snap := ts.Snapshot()
	if snap.KeptSlow != 1 {
		t.Errorf("kept_slow = %d", snap.KeptSlow)
	}
	if snap.SlowThresholdNS == 0 {
		t.Error("slow threshold not reported after activation")
	}
	// The deciding duration must not have fed the threshold before its
	// own comparison — but it must afterwards: a second identical slow
	// root still clears the (now raised) nearest-rank p99 at equality.
	if !ts.isSlowLocked(1_000_000) {
		t.Error("ring did not absorb the slow sample after deciding")
	}
}

func TestTraceCapacityEviction(t *testing.T) {
	ts := NewTraceStore(4, 1.0, 42)
	for i := 1; i <= 6; i++ {
		ts.Ingest([]SpanRecord{mkRec(tid(i), sid(i), "", "r", 1, "")})
	}
	snap := ts.Snapshot()
	if snap.Traces != 4 || snap.Evicted != 2 {
		t.Fatalf("traces=%d evicted=%d, want 4/2", snap.Traces, snap.Evicted)
	}
	if _, ok := ts.Get(tid(1)); ok {
		t.Error("oldest trace survived eviction")
	}
	if _, ok := ts.Get(tid(6)); !ok {
		t.Error("newest trace evicted")
	}
	// Newest first in the listing.
	list := ts.Summaries(2)
	if len(list.Traces) != 2 || list.Traces[0].TraceID != tid(6) || list.Traces[1].TraceID != tid(5) {
		t.Errorf("summaries order = %+v", list.Traces)
	}
}

func TestIngestValidatesAndBuffers(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	n := ts.Ingest([]SpanRecord{
		mkRec("short", sid(1), "", "r", 1, ""),        // bad trace ID
		mkRec(tid(1), "short", "", "r", 1, ""),        // bad span ID
		mkRec(tid(1), sid(1), "", "", 1, ""),          // missing name
		mkRec(tid(2), sid(3), "", "solve", -5, ""),    // negative duration
		mkRec(tid(1), sid(2), sid(9), "child", 1, ""), // valid, rootless
	})
	if n != 1 {
		t.Fatalf("ingested %d, want 1", n)
	}
	// The negative-duration root decided nothing and reached no stage
	// aggregate.
	if snap := ts.Snapshot(); snap.Decided != 0 || snap.Stages["solve"].Count != 0 {
		t.Fatalf("negative-duration record leaked into the store: %+v", snap)
	}
	// Rootless batches stay pending: not queryable yet.
	if _, ok := ts.Get(tid(1)); ok {
		t.Fatal("rootless trace visible")
	}
	// The root arriving later finalizes the buffered spans with it.
	ts.Ingest([]SpanRecord{mkRec(tid(1), sid(9), "", "root", 1, "")})
	dump, ok := ts.Get(tid(1))
	if !ok || len(dump.Spans) != 2 {
		t.Fatalf("after root: ok=%v spans=%d, want 2", ok, len(dump.Spans))
	}
}

func TestIngestIntoKeptTrace(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	root := ts.StartSpan("server.optimize", "pdced", SpanContext{})
	root.End()
	// The pool ships its client-side spans after the server decided:
	// they merge into the kept trace.
	n := ts.Ingest([]SpanRecord{mkRec(root.TraceID(), sid(50), "", "client.request", 5, "")})
	if n != 1 {
		t.Fatalf("ingested %d", n)
	}
	dump, _ := ts.Get(root.TraceID())
	if len(dump.Spans) != 2 {
		t.Fatalf("merged trace has %d spans", len(dump.Spans))
	}
	if snap := ts.Snapshot(); snap.IngestedSpans != 1 {
		t.Errorf("ingested_spans = %d", snap.IngestedSpans)
	}
}

func TestStageAggregates(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	for i := int64(1); i <= 4; i++ {
		ts.Ingest([]SpanRecord{mkRec(tid(int(i)), sid(int(i)), "", "solve", i*100, "")})
	}
	snap := ts.Snapshot()
	agg, ok := snap.Stages["solve"]
	if !ok {
		t.Fatal("no solve stage aggregate")
	}
	if agg.Count != 4 || agg.MaxNS != 400 {
		t.Errorf("solve agg = %+v", agg)
	}
	if agg.P50NS != 200 || agg.P95NS != 400 {
		t.Errorf("solve percentiles = p50 %d p95 %d", agg.P50NS, agg.P95NS)
	}
}

func TestSpanLink(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	root := ts.StartSpan("queue.execute", "pdced", SpanContext{TraceID: tid(1), SpanID: sid(1)})
	root.SetLink(SpanContext{TraceID: tid(1), SpanID: sid(1)})
	root.End()
	dump, _ := ts.Get(tid(1))
	if dump.Spans[0].LinkTraceID != tid(1) || dump.Spans[0].LinkSpanID != sid(1) {
		t.Fatalf("link = %s/%s", dump.Spans[0].LinkTraceID, dump.Spans[0].LinkSpanID)
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(64, 0.5, 42)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := ts.StartSpan("r", "t", SpanContext{})
				c := root.Child("c")
				c.SetAttr("g", "x")
				c.End()
				root.End()
				ts.Snapshot()
				ts.Summaries(4)
				ts.Get(root.TraceID())
			}
		}(g)
	}
	wg.Wait()
	snap := ts.Snapshot()
	if snap.Decided != 400 {
		t.Fatalf("decided %d traces, want 400", snap.Decided)
	}
	if snap.Kept+snap.SampledOut != snap.Decided {
		t.Fatalf("kept %d + sampled_out %d != decided %d", snap.Kept, snap.SampledOut, snap.Decided)
	}
}

func TestContextPlumbing(t *testing.T) {
	ts := NewTraceStore(8, 1.0, 42)
	root := ts.StartSpan("r", "t", SpanContext{})
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatal("span did not round-trip through context")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatal("empty context produced a span")
	}
	// Attaching nil leaves the context untouched.
	if ctx2 := ContextWithSpan(ctx, nil); SpanFromContext(ctx2) != root {
		t.Fatal("nil attach clobbered the existing span")
	}
}
