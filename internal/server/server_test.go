package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/server"
)

const demoSource = `
y := a + b
if * {
    y := c
}
out(x + y)
`

// startServer builds a Server plus an httptest front end.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *pdce.Client) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, pdce.NewClient(ts.URL)
}

// rawOptimize posts source and returns status, body, and cache header.
func rawOptimize(t *testing.T, base, query, source string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(base+"/optimize?"+query, "text/plain", strings.NewReader(source))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Pdced-Cache")
}

// TestCacheHitByteIdentical is the core acceptance path: the second
// identical request is served from the cache — the hit counter moves,
// no new optimizer run happens — and its body is byte-identical to the
// first response.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts, client := startServer(t, server.Config{})

	status, first, state := rawOptimize(t, ts.URL, "name=demo&telemetry=1", demoSource)
	if status != http.StatusOK || state != string(pdce.CacheMiss) {
		t.Fatalf("first request: status %d, cache %q", status, state)
	}
	status, second, state := rawOptimize(t, ts.URL, "name=demo&telemetry=1", demoSource)
	if status != http.StatusOK || state != string(pdce.CacheHit) {
		t.Fatalf("second request: status %d, cache %q", status, state)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit is not byte-identical:\nfirst:  %s\nsecond: %s", first, second)
	}
	if got := s.Stats().Optimizes.Load(); got != 1 {
		t.Errorf("optimizer ran %d times, want 1 (the hit must do no solver work)", got)
	}
	snap := s.Stats().Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}

	// The decoded payload is a real result: the optimizer removed the
	// partially dead y := a+b and the telemetry section is present.
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(second, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Telemetry == nil {
		t.Error("telemetry=1 response lacks solver metrics")
	}
	if resp.Stats.Eliminated+resp.Stats.SinkRemoved == 0 {
		t.Errorf("demo program was not optimized: %+v", resp.Stats)
	}
	if _, err := pdce.ParseCFG(resp.Program); err != nil {
		t.Errorf("response program does not round-trip: %v", err)
	}
	_ = client

	// Same program under a different whitespace spelling is still the
	// same content address.
	_, _, state = rawOptimize(t, ts.URL, "name=demo&telemetry=1",
		"// a comment\n"+strings.ReplaceAll(demoSource, "    ", "\t"))
	if state != string(pdce.CacheHit) {
		t.Errorf("reformatted source missed the cache (%q)", state)
	}

	// A semantically different program must not.
	_, _, state = rawOptimize(t, ts.URL, "name=demo&telemetry=1",
		strings.Replace(demoSource, "a + b", "a - b", 1))
	if state != string(pdce.CacheMiss) {
		t.Errorf("edited source was served from cache (%q)", state)
	}
}

func contextOK(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// stallRequests installs a ServerRequest hook that parks every
// admitted request until release is closed, reporting each arrival on
// entered.
func stallRequests(t *testing.T) (entered chan string, release chan struct{}) {
	t.Helper()
	entered = make(chan string, 16)
	release = make(chan struct{})
	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if p != faultinject.ServerRequest {
			return
		}
		name, _ := payload.(string)
		entered <- name
		<-release
	})
	t.Cleanup(restore)
	return entered, release
}

// TestQueueSaturation: with one work slot and a one-deep queue, a
// third concurrent request is shed with 429 Retry-After while
// /healthz stays green; once capacity frees, queued work completes.
func TestQueueSaturation(t *testing.T) {
	s, ts, client := startServer(t, server.Config{MaxInFlight: 1, MaxQueue: 1})
	entered, release := stallRequests(t)

	type outcome struct {
		status int
		state  string
	}
	results := make(chan outcome, 2)
	post := func(src string) {
		status, _, state := rawOptimize(t, ts.URL, "", src)
		results <- outcome{status, state}
	}
	go post("out(1)\n")
	<-entered // request 1 holds the slot

	go post("out(2)\n")
	waitFor(t, "request 2 queued", func() bool {
		m, err := client.Metrics(contextOK(t))
		return err == nil && m.Queue.Queued == 1
	})

	// Request 3 finds slot and queue full: shed immediately.
	se := mustServerError(t, ts.URL, "out(3)\n")
	if se.Status != http.StatusTooManyRequests || se.Kind != "queue-full" {
		t.Fatalf("saturated request: %+v", se)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("429 without Retry-After: %+v", se)
	}

	// Health is policy-independent: still green.
	if status, err := client.Health(contextOK(t)); err != nil || status != "ok" {
		t.Errorf("healthz under saturation: %q, %v", status, err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if o := <-results; o.status != http.StatusOK {
			t.Errorf("in-flight/queued request finished %d", o.status)
		}
	}
	if snap := s.Stats().Snapshot(); snap.ShedQueueFull != 1 {
		t.Errorf("shed counter = %d, want 1", snap.ShedQueueFull)
	}
}

func mustServerError(t *testing.T, base, src string) *pdce.ServerError {
	t.Helper()
	client := pdce.NewClient(base)
	_, _, err := client.Optimize(contextOK(t), "x", src, pdce.RequestOptions{})
	if err == nil {
		t.Fatal("expected an error response")
	}
	se, ok := err.(*pdce.ServerError)
	if !ok {
		t.Fatalf("error is %T (%v), want *pdce.ServerError", err, err)
	}
	return se
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGracefulDrain: in-flight requests complete with full responses
// during drain, new requests are refused 503, and Drain returns once
// the server is idle.
func TestGracefulDrain(t *testing.T) {
	s, ts, client := startServer(t, server.Config{MaxInFlight: 2})
	entered, release := stallRequests(t)

	results := make(chan []byte, 1)
	go func() {
		status, body, _ := rawOptimize(t, ts.URL, "name=inflight", demoSource)
		if status != http.StatusOK {
			body = nil
		}
		results <- body
	}()
	<-entered // the request is admitted and running

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, "drain mode", s.Draining)

	// New work is refused while the old completes.
	se := mustServerError(t, ts.URL, "out(9)\n")
	if se.Status != http.StatusServiceUnavailable || se.Kind != "draining" {
		t.Fatalf("request during drain: %+v", se)
	}
	if status, err := client.Health(contextOK(t)); err != nil || status != "draining" {
		t.Errorf("healthz during drain: %q, %v", status, err)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	body := <-results
	if body == nil {
		t.Fatal("in-flight request was dropped during drain")
	}
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Program == "" {
		t.Fatalf("in-flight response truncated during drain: %v, %s", err, body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestPanic500NeverPoisonsCache: an injected optimizer panic answers
// 500 with the repro-bundle path; the cache stays empty, so the next
// identical request recomputes and succeeds.
func TestPanic500NeverPoisonsCache(t *testing.T) {
	reproDir := t.TempDir()
	s, ts, _ := startServer(t, server.Config{ReproDir: reproDir})

	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.EliminatePhase {
			panic("injected optimizer fault")
		}
	})
	status, body, _ := rawOptimize(t, ts.URL, "name=demo", demoSource)
	restore()

	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, body %s", status, body)
	}
	var se pdce.ServerError
	if err := json.Unmarshal(body, &se); err != nil {
		t.Fatal(err)
	}
	if se.Kind != "panic" || se.ReproBundle == "" {
		t.Fatalf("panic response: %+v", se)
	}
	if _, err := os.Stat(se.ReproBundle); err != nil {
		t.Errorf("repro bundle path not on disk: %v", err)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("panicked run left %d cache entries", n)
	}
	if snap := s.Stats().Snapshot(); snap.Panics != 1 {
		t.Errorf("panic counter = %d, want 1", snap.Panics)
	}

	// The poisoned key recomputes cleanly once the fault is gone.
	status, _, state := rawOptimize(t, ts.URL, "name=demo", demoSource)
	if status != http.StatusOK || state != string(pdce.CacheMiss) {
		t.Fatalf("recovery request: status %d, cache %q", status, state)
	}
}

// TestDeadlineDegradesUncached: a tiny per-request deadline against a
// stalled solver yields a 200 degraded partial result that is never
// cached — the next request (fault removed) recomputes the optimum.
func TestDeadlineDegradesUncached(t *testing.T) {
	s, ts, _ := startServer(t, server.Config{})
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			time.Sleep(3 * time.Millisecond)
		}
	})
	status, body, _ := rawOptimize(t, ts.URL, "name=demo&deadline_ms=1", demoSource)
	restore()
	if status != http.StatusOK {
		t.Fatalf("degraded request: status %d, body %s", status, body)
	}
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.ErrorKind != "deadline" {
		t.Fatalf("expected a degraded deadline result, got %+v", resp)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("degraded result was cached (%d entries)", n)
	}
	status, body, _ = rawOptimize(t, ts.URL, "name=demo", demoSource)
	if status != http.StatusOK {
		t.Fatalf("recovery: status %d", status)
	}
	var again pdce.OptimizeResponse
	if err := json.Unmarshal(body, &again); err != nil || again.Degraded {
		t.Fatalf("recovery still degraded: %v %+v", err, again)
	}
}

// TestSingleflightDedup: concurrent identical requests compute once;
// followers coalesce onto the leader's result.
func TestSingleflightDedup(t *testing.T) {
	s, ts, _ := startServer(t, server.Config{MaxInFlight: 4})
	entered, release := stallRequests(t)

	const followers = 4
	states := make(chan string, followers+1)
	post := func() {
		status, _, state := rawOptimize(t, ts.URL, "name=same", demoSource)
		if status != http.StatusOK {
			state = fmt.Sprintf("status-%d", status)
		}
		states <- state
	}
	go post()
	<-entered // the leader holds the flight slot and is stalled
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); post() }()
	}
	// Followers pile onto the flight entry; requests counter tells us
	// they all arrived before we release the leader.
	waitFor(t, "followers to arrive", func() bool {
		return s.Stats().Snapshot().Requests == followers+1
	})
	time.Sleep(5 * time.Millisecond) // let them reach the flight wait
	close(release)
	wg.Wait()

	counts := map[string]int{}
	for i := 0; i < followers+1; i++ {
		counts[<-states]++
	}
	if counts[string(pdce.CacheMiss)] != 1 {
		t.Errorf("outcomes %v: want exactly one miss", counts)
	}
	if got := s.Stats().Optimizes.Load(); got != 1 {
		t.Errorf("optimizer ran %d times for %d identical requests", got, followers+1)
	}
}

// TestSpillSurvivesRestart: a second server over the same spill
// directory serves the first server's results as hits without
// recomputing.
func TestSpillSurvivesRestart(t *testing.T) {
	spill := t.TempDir()
	_, ts1, _ := startServer(t, server.Config{SpillDir: spill})
	status, first, _ := rawOptimize(t, ts1.URL, "name=demo", demoSource)
	if status != http.StatusOK {
		t.Fatal("seed request failed")
	}

	s2, ts2, _ := startServer(t, server.Config{SpillDir: spill})
	status, second, state := rawOptimize(t, ts2.URL, "name=demo", demoSource)
	if status != http.StatusOK || state != string(pdce.CacheHit) {
		t.Fatalf("restarted server: status %d, cache %q", status, state)
	}
	if !bytes.Equal(first, second) {
		t.Error("spill-recovered response differs from the original")
	}
	if s2.Stats().Optimizes.Load() != 0 {
		t.Error("restarted server recomputed a spilled result")
	}
	if m := s2.Cache().Metrics(); m.SpillHits != 1 {
		t.Errorf("spill hits = %d, want 1", m.SpillHits)
	}
}

// TestSpillCorruptionQuarantined: a corrupted spill entry (injected at
// the ServerCacheLoad seam) is detected, never served, and the result
// is recomputed — byte-identical to the original, by determinism.
func TestSpillCorruptionQuarantined(t *testing.T) {
	spill := t.TempDir()
	_, ts1, _ := startServer(t, server.Config{SpillDir: spill})
	_, first, _ := rawOptimize(t, ts1.URL, "name=demo", demoSource)

	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if p != faultinject.ServerCacheLoad {
			return
		}
		data := payload.(*[]byte)
		if len(*data) > 0 {
			(*data)[len(*data)/2] ^= 0xFF
		}
	})
	s2, ts2, _ := startServer(t, server.Config{SpillDir: spill})
	status, body, state := rawOptimize(t, ts2.URL, "name=demo", demoSource)
	restore()

	if status != http.StatusOK || state != string(pdce.CacheMiss) {
		t.Fatalf("corrupted-spill request: status %d, cache %q", status, state)
	}
	if !bytes.Equal(first, body) {
		t.Error("recomputed response differs from the pre-corruption original")
	}
	if m := s2.Cache().Metrics(); m.SpillCorrupt != 1 {
		t.Errorf("spill corrupt counter = %d, want 1", m.SpillCorrupt)
	}
	if s2.Stats().Optimizes.Load() != 1 {
		t.Error("corrupted entry was served instead of recomputed")
	}
}

// TestBatchEndpoint: mixed batch with a parse failure; the second
// submission is served entirely from cache with no pool run.
func TestBatchEndpoint(t *testing.T) {
	s, _, client := startServer(t, server.Config{})
	_ = s
	req := pdce.BatchOptimizeRequest{
		Mode: "pde",
		Programs: []pdce.BatchProgram{
			{Name: "ok1", Source: demoSource},
			{Name: "broken", Source: "if { nope"},
			{Name: "ok2", Source: "x := a\nout(x)\n"},
		},
	}
	resp, err := client.OptimizeBatch(contextOK(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}
	if resp.Results[1].ErrorKind != "parse" {
		t.Errorf("broken program: %+v", resp.Results[1])
	}
	if resp.Results[0].Cached || resp.Results[0].Program == "" || resp.Results[2].Program == "" {
		t.Errorf("fresh batch entries wrong: %+v, %+v", resp.Results[0], resp.Results[2])
	}
	if resp.Metrics == nil || resp.Metrics.Jobs != 2 {
		t.Errorf("batch metrics: %+v", resp.Metrics)
	}

	again, err := client.OptimizeBatch(contextOK(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Results[0].Cached || !again.Results[2].Cached {
		t.Errorf("second batch not cached: %+v, %+v", again.Results[0], again.Results[2])
	}
	if again.Metrics != nil {
		t.Errorf("fully-cached batch still ran a pool: %+v", again.Metrics)
	}
	if again.Results[0].Program != resp.Results[0].Program {
		t.Error("cached batch entry differs from the computed one")
	}
}

// TestExplainEndpoint: ?explain returns the provenance report and
// addresses a distinct cache entry from the plain request.
func TestExplainEndpoint(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	status, body, state := rawOptimize(t, ts.URL, "name=demo&explain=y", demoSource)
	if status != http.StatusOK || state != string(pdce.CacheMiss) {
		t.Fatalf("explain request: %d %q", status, state)
	}
	var resp pdce.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Explain, "y") {
		t.Errorf("explain text: %q", resp.Explain)
	}
	// A plain request for the same program is a different entry.
	_, _, state = rawOptimize(t, ts.URL, "name=demo", demoSource)
	if state != string(pdce.CacheMiss) {
		t.Errorf("plain request hit the explain entry (%q)", state)
	}
	// Repeating the explain request hits.
	_, _, state = rawOptimize(t, ts.URL, "name=demo&explain=y", demoSource)
	if state != string(pdce.CacheHit) {
		t.Errorf("repeated explain request: %q", state)
	}
}

// TestBadRequests: validation and parse failures answer 400 with
// structured kinds.
func TestBadRequests(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	for _, tc := range []struct {
		query, src, kind string
	}{
		{"mode=nonsense", "out(1)\n", "bad-request"},
		{"max_rounds=minus", "out(1)\n", "bad-request"},
		{"", "if { broken", "parse"},
		{"lang=cfg", "out(1)\n", "parse"}, // WHILE text forced through the CFG parser
	} {
		status, body, _ := rawOptimize(t, ts.URL, tc.query, tc.src)
		if status != http.StatusBadRequest {
			t.Errorf("%q/%q: status %d", tc.query, tc.src, status)
			continue
		}
		var se pdce.ServerError
		if err := json.Unmarshal(body, &se); err != nil || se.Kind != tc.kind {
			t.Errorf("%q/%q: kind %q (want %q), err %v", tc.query, tc.src, se.Kind, tc.kind, err)
		}
	}
}

// TestOptimizeContentLength: a 200 /optimize reply carries its body's
// length, on a miss and on a hit, also for a body past the size at
// which net/http would otherwise chunk it; pdce.Client sizes its read
// buffer from it.
func TestOptimizeContentLength(t *testing.T) {
	_, ts, _ := startServer(t, server.Config{})
	src := pdce.Generate(pdce.GenParams{Seed: 1, Stmts: 128}).Format()
	for _, want := range []string{string(pdce.CacheMiss), string(pdce.CacheHit)} {
		resp, err := http.Post(ts.URL+"/optimize", "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if state := resp.Header.Get("X-Pdced-Cache"); resp.StatusCode != http.StatusOK || state != want {
			t.Fatalf("status %d, cache %q; want 200 %s", resp.StatusCode, state, want)
		}
		if len(body) < 8<<10 {
			t.Fatalf("a %d-byte reply does not test chunking", len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v, for a %d-byte body",
				want, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestRequestBodyRefused: a request body over the 8 MiB cap, or one
// whose read fails, answers 400 bad-request on /optimize and
// /optimize/submit, whatever its Content-Length says.
func TestRequestBodyRefused(t *testing.T) {
	s, err := server.New(server.Config{QueueDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	big := strings.Repeat("x", 8<<20+1)
	const tooLarge = "reading body: http: request body too large"
	for _, path := range []string{"/optimize", "/optimize/submit"} {
		for _, tc := range []struct {
			name     string
			body     io.Reader
			declared int64
			want     string
		}{
			{"over the cap", strings.NewReader(big), int64(len(big)), tooLarge},
			{"over the cap, length unknown", strings.NewReader(big), -1, tooLarge},
			{"over the cap, length understated", strings.NewReader(big), 16, tooLarge},
			{"read fails", io.MultiReader(strings.NewReader("out(1)"), failingReader{}), 1 << 30, "reading body: connection lost"},
		} {
			req := httptest.NewRequest(http.MethodPost, path, tc.body)
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var se pdce.ServerError
			if err := json.Unmarshal(rec.Body.Bytes(), &se); err != nil || rec.Code != http.StatusBadRequest ||
				se.Kind != "bad-request" || se.Message != tc.want {
				t.Errorf("%s %s: status %d, body %s; want 400 bad-request %q", path, tc.name, rec.Code, rec.Body.Bytes(), tc.want)
			}
		}
	}
}

// failingReader fails every read, as a connection lost mid-body does.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection lost") }
