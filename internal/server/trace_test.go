package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/server"
)

const (
	testTraceID = "0123456789abcdef0123456789abcdef"
	testSpanID  = "00f067aa0ba902b7"
)

// spanNames collects the stage names of a dump for containment checks.
func spanNames(dump pdce.TraceDump) map[string]int {
	out := map[string]int{}
	for _, s := range dump.Spans {
		out[s.Name]++
	}
	return out
}

func getTrace(t *testing.T, base, id string) pdce.TraceDump {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: %d %s", id, resp.StatusCode, body)
	}
	var dump pdce.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	return dump
}

// TestRequestIDOnEveryResponse: the Pdce-Request-Id header appears on
// success, on client errors, and on drain rejections — the paths a
// debugging operator most needs to correlate.
func TestRequestIDOnEveryResponse(t *testing.T) {
	s, ts, _ := startServer(t, server.Config{})

	// Minted when absent.
	status, _, _ := rawOptimize(t, ts.URL, "name=demo", demoSource)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	resp, err := http.Post(ts.URL+"/optimize", "text/plain", strings.NewReader(demoSource))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("Pdce-Request-Id"); rid == "" {
		t.Error("200 response missing Pdce-Request-Id")
	}

	// Echoed when the caller supplies a sane one.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(demoSource))
	req.Header.Set("Pdce-Request-Id", "caller-id-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("Pdce-Request-Id"); rid != "caller-id-42" {
		t.Errorf("echoed id = %q, want caller-id-42", rid)
	}

	// Replaced when the caller's id is header-unsafe.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(demoSource))
	req.Header.Set("Pdce-Request-Id", "evil id\twith spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("Pdce-Request-Id"); rid == "" || strings.Contains(rid, " ") {
		t.Errorf("unsafe id passed through: %q", rid)
	}

	// Present on a 400 parse failure.
	resp, err = http.Post(ts.URL+"/optimize", "text/plain", strings.NewReader("x := (((\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Pdce-Request-Id") == "" {
		t.Errorf("400 path: status %d, rid %q", resp.StatusCode, resp.Header.Get("Pdce-Request-Id"))
	}

	// Present on the 503 drain rejection.
	s.BeginDrain()
	resp, err = http.Post(ts.URL+"/optimize", "text/plain", strings.NewReader(demoSource))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Pdce-Request-Id") == "" {
		t.Errorf("503 drain path: status %d, rid %q", resp.StatusCode, resp.Header.Get("Pdce-Request-Id"))
	}
}

// TestTraceJoinAndSpanTree: a request carrying a W3C traceparent joins
// that trace, and the stored tree covers admission, cache, and solver.
func TestTraceJoinAndSpanTree(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{TraceSeed: 1})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/optimize?name=demo", strings.NewReader(demoSource))
	req.Header.Set("Traceparent", "00-"+testTraceID+"-"+testSpanID+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Pdce-Trace-Id"); got != testTraceID {
		t.Fatalf("Pdce-Trace-Id = %q, want the joined trace %q", got, testTraceID)
	}

	dump := getTrace(t, ts.URL, testTraceID)
	names := spanNames(dump)
	for _, want := range []string{"server.optimize", "server.cache", "server.admission", "solve", "solve.round", "solve.eliminate", "solve.sink"} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
	var root pdce.SpanRecord
	for _, sp := range dump.Spans {
		if sp.Name == "server.optimize" {
			root = sp
		}
	}
	if root.ParentID != testSpanID {
		t.Errorf("server root parent = %q, want the caller's span %q", root.ParentID, testSpanID)
	}
	if root.Attrs["status"] != "200" || root.Attrs["request_id"] == "" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if root.Service != "pdced" {
		t.Errorf("root service = %q", root.Service)
	}

	// Cache outcome recorded: first request is a miss, second a hit
	// with a new trace.
	var cache pdce.SpanRecord
	for _, sp := range dump.Spans {
		if sp.Name == "server.cache" {
			cache = sp
		}
	}
	if cache.Attrs["outcome"] != "miss" {
		t.Errorf("first request cache outcome = %q", cache.Attrs["outcome"])
	}

	resp2, err := http.Post(ts.URL+"/optimize?name=demo", "text/plain", strings.NewReader(demoSource))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	id2 := resp2.Header.Get("Pdce-Trace-Id")
	if id2 == "" || id2 == testTraceID {
		t.Fatalf("second request trace id = %q", id2)
	}
	dump2 := getTrace(t, ts.URL, id2)
	names2 := spanNames(dump2)
	if names2["solve"] != 0 {
		t.Error("cache hit ran a solve span")
	}
	found := false
	for _, sp := range dump2.Spans {
		if sp.Name == "server.cache" && sp.Attrs["outcome"] == "hit" {
			found = true
		}
	}
	if !found {
		t.Errorf("cache-hit trace lacks a hit-outcome cache span: %+v", dump2.Spans)
	}
}

// TestTraceRecoversSolverRounds: starting from nothing but the
// caller's Pdce-Request-Id, the trace store alone yields the request's
// solver round count — on the solve span and as its solve.round
// children — and it matches the library's Stats.Rounds.
func TestTraceRecoversSolverRounds(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(demoSource))
	req.Header.Set("Pdce-Request-Id", "rounds-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d", resp.StatusCode)
	}

	lresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list pdce.TraceList
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var dump pdce.TraceDump
	found := false
	for _, sum := range list.Traces {
		d := getTrace(t, ts.URL, sum.TraceID)
		for _, sp := range d.Spans {
			if sp.Name == "server.optimize" && sp.Attrs["request_id"] == "rounds-e2e" {
				dump, found = d, true
			}
		}
	}
	if !found {
		t.Fatalf("no retained trace has a server.optimize root with request_id rounds-e2e (%d traces listed)", len(list.Traces))
	}
	rounds, roundSpans := "", 0
	for _, sp := range dump.Spans {
		switch sp.Name {
		case "solve":
			rounds = sp.Attrs["rounds"]
		case "solve.round":
			roundSpans++
		}
	}

	prog, err := pdce.ParseSource("request", demoSource)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := prog.Optimize(pdce.Options{Mode: pdce.Dead})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 2 {
		t.Fatalf("library converged in %d rounds; the check needs a multi-round program", st.Rounds)
	}
	if rounds != strconv.Itoa(st.Rounds) {
		t.Errorf("solve span rounds = %q, library Stats.Rounds = %d", rounds, st.Rounds)
	}
	if roundSpans != st.Rounds {
		t.Errorf("trace holds %d solve.round spans, library Stats.Rounds = %d", roundSpans, st.Rounds)
	}
}

// TestTraceErrorAlwaysKept: with a near-zero sample rate, an OK trace
// is dropped but a failed request's trace survives (tail sampling).
func TestTraceErrorAlwaysKept(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{TraceSample: 1e-12, TraceSeed: 7})

	resp, err := http.Post(ts.URL+"/optimize?name=demo", "text/plain", strings.NewReader(demoSource))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	okID := resp.Header.Get("Pdce-Trace-Id")
	if r2, err := http.Get(ts.URL + "/debug/traces/" + okID); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("unremarkable trace retained at sample=1e-12 (status %d)", r2.StatusCode)
		}
	}

	resp, err = http.Post(ts.URL+"/optimize", "text/plain", strings.NewReader("x := (((\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse failure status %d", resp.StatusCode)
	}
	dump := getTrace(t, ts.URL, resp.Header.Get("Pdce-Trace-Id"))
	var root pdce.SpanRecord
	for _, sp := range dump.Spans {
		if sp.Name == "server.optimize" {
			root = sp
		}
	}
	if root.Error != "http-400" {
		t.Errorf("error class = %q, want http-400", root.Error)
	}
}

// TestBatchJobSpanDeadline: a batch job stopped by its deadline
// records the same error word on its batch.job span as the entry's
// wire error_kind, so one vocabulary serves /optimize's solve span,
// the batch path and the response body.
func TestBatchJobSpanDeadline(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			time.Sleep(3 * time.Millisecond)
		}
	})
	defer restore()
	body, _ := json.Marshal(pdce.BatchOptimizeRequest{
		Mode:       "pde",
		DeadlineMS: 1,
		Programs:   []pdce.BatchProgram{{Name: "slow", Source: demoSource}},
	})
	resp, err := http.Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out pdce.BatchOptimizeResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].ErrorKind != "deadline" {
		t.Fatalf("batch entry: %+v, want error_kind deadline", out.Results)
	}
	traceID := resp.Header.Get("Pdce-Trace-Id")
	waitForSpan(t, ts.URL, traceID, "batch.job")
	found := false
	for _, sp := range getTrace(t, ts.URL, traceID).Spans {
		if sp.Name == "batch.job" {
			found = true
			if sp.Error != out.Results[0].ErrorKind {
				t.Errorf("batch.job span error = %q, entry error_kind = %q", sp.Error, out.Results[0].ErrorKind)
			}
		}
	}
	if !found {
		t.Fatal("trace has no batch.job span")
	}
}

// TestTraceDisabled: negative capacity turns the subsystem off — no
// trace header, 503 from the debug surface, request ids still flowing.
func TestTraceDisabled(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{TraceCapacity: -1})
	resp, err := http.Post(ts.URL+"/optimize?name=demo", "text/plain", strings.NewReader(demoSource))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Pdce-Trace-Id") != "" {
		t.Error("trace header with tracing disabled")
	}
	if resp.Header.Get("Pdce-Request-Id") == "" {
		t.Error("request id missing with tracing disabled")
	}
	for _, path := range []string{"/debug/traces", "/debug/traces/" + testTraceID} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s with tracing off: %d, want 503", path, r.StatusCode)
		}
	}
}

// TestTraceListingAndLimit covers GET /debug/traces pagination.
func TestTraceListingAndLimit(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	for i := 0; i < 3; i++ {
		status, _, _ := rawOptimize(t, ts.URL, "name=demo", demoSource)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/traces?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list pdce.TraceList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list.Traces))
	}
	for _, tr := range list.Traces {
		if tr.Root != "server.optimize" || tr.Spans == 0 {
			t.Errorf("summary = %+v", tr)
		}
	}
	r, err := http.Get(ts.URL + "/debug/traces?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d", r.StatusCode)
	}
}

// TestTraceIngest: externally recorded spans (the pool's side) merge
// into the store via POST /debug/traces.
func TestTraceIngest(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	recs := []pdce.SpanRecord{{
		TraceID:     testTraceID,
		SpanID:      testSpanID,
		Name:        "client.request",
		Service:     "pool",
		StartUnixNS: 1,
		DurationNS:  10,
	}}
	body, _ := json.Marshal(recs)
	resp, err := http.Post(ts.URL+"/debug/traces", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["ingested"] != 1 {
		t.Fatalf("ingested = %d", out["ingested"])
	}
	dump := getTrace(t, ts.URL, testTraceID)
	if len(dump.Spans) != 1 || dump.Spans[0].Service != "pool" {
		t.Fatalf("ingested dump = %+v", dump)
	}

	r, err := http.Post(ts.URL+"/debug/traces", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage ingest: status %d", r.StatusCode)
	}
}

// TestMetricsPromFormat: ?format=prom renders the whole ServerMetrics
// surface as Prometheus gauges; unknown formats answer 400.
func TestMetricsPromFormat(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	if status, _, _ := rawOptimize(t, ts.URL, "name=demo", demoSource); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE pdce_server_requests gauge",
		"pdce_server_requests 1",
		"pdce_server_optimizes 1",
		"pdce_cache_entries",
		"pdce_traces_kept",
		`pdce_traces_stages_count{key="server.optimize"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// JSON by default and under format=json; 400 otherwise.
	for q, wantStatus := range map[string]int{"": 200, "?format=json": 200, "?format=xml": 400} {
		r, err := http.Get(ts.URL + "/metrics" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != wantStatus {
			t.Errorf("GET /metrics%s: %d, want %d", q, r.StatusCode, wantStatus)
		}
	}
}

// TestReproBundleCarriesRequestID: the repro bundle a contained panic
// writes is findable from the failing response's Pdce-Request-Id — the
// operator's path from a 500 to its replay input.
func TestReproBundleCarriesRequestID(t *testing.T) {
	reproDir := t.TempDir()
	_, ts, _ := startServer(t, server.Config{ReproDir: reproDir})
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.EliminatePhase {
			panic("injected optimizer fault")
		}
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/optimize?name=demo", strings.NewReader(demoSource))
	req.Header.Set("Pdce-Request-Id", "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d %s", resp.StatusCode, body)
	}
	var se pdce.ServerError
	if err := json.Unmarshal(body, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(se.ReproBundle), "trace-me-123") {
		t.Errorf("bundle %q does not carry the request id", se.ReproBundle)
	}
	// The 500's trace is an always-keep with the panic visible.
	dump := getTrace(t, ts.URL, resp.Header.Get("Pdce-Trace-Id"))
	var solve pdce.SpanRecord
	for _, sp := range dump.Spans {
		if sp.Name == "solve" {
			solve = sp
		}
	}
	if solve.Error != "panic" {
		t.Errorf("solve span error = %q, want panic", solve.Error)
	}
}

// TestQueueTraceSpans: the async path hangs its queue spans off the
// submission root — enqueue and WAL-fsync as children, and the
// worker's execute span as a later root joining the same trace.
func TestQueueTraceSpans(t *testing.T) {
	cfg := queueConfig(t)
	s, ts, c := startServer(t, cfg)
	defer s.Drain(context.Background())

	sub, err := c.Submit(context.Background(), "qtrace", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.TraceID == "" {
		t.Fatalf("submit receipt carries no trace id: %+v", sub)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Poll(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobDone {
		t.Fatalf("job state %q error %q", res.State, res.Error)
	}
	if res.TraceID != sub.TraceID {
		t.Fatalf("poll trace id %q, want submission's %q", res.TraceID, sub.TraceID)
	}

	// The execute span ends just after the done state becomes
	// pollable, so wait for it rather than racing the worker.
	names := waitForSpan(t, ts.URL, sub.TraceID, "queue.execute")
	for _, n := range []string{"server.optimize.submit", "queue.enqueue", "queue.wal.fsync", "queue.execute", "solve"} {
		if names[n] == 0 {
			t.Errorf("trace missing span %q: %v", n, names)
		}
	}
}

// waitForSpan polls a trace until the named span appears (the worker
// publishes the done state slightly before ending its span).
func waitForSpan(t *testing.T, base, traceID, span string) map[string]int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		names := spanNames(getTrace(t, base, traceID))
		if names[span] > 0 || time.Now().After(deadline) {
			return names
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueReplayTraceLink is the restart contract: a job that was
// in flight when the process died replays under its ORIGINAL trace id
// (read back from the WAL), and its execute span carries an explicit
// link to the pre-crash submission so the two lifetimes join.
func TestQueueReplayTraceLink(t *testing.T) {
	cfg := queueConfig(t)
	cfg.QueueWorkers = 1

	// Block the solver once job A starts, so its "start" record is in
	// the log buffer; job B's synchronous submit append then fsyncs it
	// into the durable prefix.
	started := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			once.Do(func() { close(started) })
			<-block
		}
	})

	s, _, c := startServer(t, cfg)
	subA, err := c.Submit(context.Background(), "replay-a", demoSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if subA.TraceID == "" {
		t.Fatal("submission minted no trace id")
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started job A")
	}
	if _, err := c.Submit(context.Background(), "replay-b", "x := 1\nout(x)", pdce.RequestOptions{}); err != nil {
		t.Fatal(err)
	}

	// Crash while A is mid-run. Kill joins the workers, so the solver
	// must be released for it to return; any record the released run
	// appends after this point lands past the captured durable prefix
	// and is chopped off by the truncate.
	q := s.Queue()
	synced := q.WALSyncedSize()
	killed := make(chan struct{})
	go func() { q.Kill(); close(killed) }()
	close(block)
	<-killed
	restore()
	if err := truncateFile(q.WALPath(), synced); err != nil {
		t.Fatal(err)
	}

	s2, ts2, c2 := startServer(t, cfg)
	defer s2.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c2.Poll(ctx, subA.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobDone {
		t.Fatalf("job A after replay: state %q error %q", res.State, res.Error)
	}
	if res.TraceID != subA.TraceID {
		t.Fatalf("replayed job reports trace %q, want the WAL-persisted %q", res.TraceID, subA.TraceID)
	}

	waitForSpan(t, ts2.URL, res.TraceID, "queue.execute")
	dump := getTrace(t, ts2.URL, res.TraceID)
	var linked bool
	for _, sp := range dump.Spans {
		if sp.Name != "queue.execute" {
			continue
		}
		if sp.Attrs["replayed"] != "true" {
			t.Fatalf("execute span not marked replayed: %+v", sp)
		}
		if sp.LinkTraceID != res.TraceID || sp.LinkSpanID == "" {
			t.Fatalf("execute span link broken: %+v", sp)
		}
		linked = true
	}
	if !linked {
		t.Fatalf("no queue.execute span in replayed trace: %v", spanNames(dump))
	}
}
