package pdce_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdce"
	"pdce/internal/server"
)

// Regression: a proxy answering /healthz with a non-JSON 502 used to
// surface as a JSON decode error. It must come back as a *ServerError
// carrying the real status code.
func TestHealthNon2xxIsServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintln(w, "<html><body>upstream connect error</body></html>")
	}))
	defer ts.Close()

	_, err := pdce.NewClient(ts.URL).Health(context.Background())
	var se *pdce.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError, got %T: %v", err, err)
	}
	if se.Status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", se.Status)
	}
	if !strings.Contains(se.Message, "upstream connect error") {
		t.Fatalf("message %q lost the proxy body", se.Message)
	}
	if strings.Contains(err.Error(), "decoding health response") {
		t.Fatalf("502 still misreported as a decode error: %v", err)
	}
}

// A draining pdced still reports its status without error (503 with a
// JSON body is the health endpoint talking, not a failure).
func TestHealthDrainingStillDecodes(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.BeginDrain()

	status, err := pdce.NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatalf("draining health probe errored: %v", err)
	}
	if status != "draining" {
		t.Fatalf("status = %q, want draining", status)
	}
}

// TestClientSubmitExplain: Submit sends Explain like every other option,
// so the server's 400 bad-request for a provenance report on an async
// submission reaches the caller, and no job is queued.
func TestClientSubmitExplain(t *testing.T) {
	s, err := server.New(server.Config{QueueDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, err := pdce.NewClient(ts.URL).Submit(context.Background(), "demo", "y := a + b\nout(y)\n", pdce.RequestOptions{Explain: "y"})
	var se *pdce.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("Submit with Explain: receipt %+v, error %v; want a *ServerError", sub, err)
	}
	if se.Status != http.StatusBadRequest || se.Kind != "bad-request" {
		t.Fatalf("Submit with Explain: %d %s, want 400 bad-request", se.Status, se.Kind)
	}
	if n := s.Queue().Snapshot().Submits; n != 0 {
		t.Fatalf("a refused submission queued %d jobs", n)
	}
}

// TestClientPropagatesTraceparent: each call of the optimize family
// sends the traceparent of the span its context carries, so pdced's
// root span for each of the four routes joins the caller's trace.
func TestClientPropagatesTraceparent(t *testing.T) {
	s, err := server.New(server.Config{QueueDir: t.TempDir(), QueueBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := pdce.NewClient(ts.URL)

	caller := pdce.NewTraceStore(8, 1, 1).StartSpan("caller", "test", pdce.SpanContext{})
	defer caller.End()
	ctx := pdce.ContextWithSpan(context.Background(), caller)
	if _, _, err := c.Optimize(ctx, "p", "y := a + b\nout(y)\n", pdce.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	batch := pdce.BatchOptimizeRequest{Programs: []pdce.BatchProgram{{Name: "b", Source: "y := a + c\nout(y)\n"}}}
	if _, err := c.OptimizeBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, "q", "y := a + d\nout(y)\n", pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, sub.ID, false); err != nil {
		t.Fatal(err)
	}

	// A root span ends as its handler returns, which can be after the
	// reply reached the client.
	routes := []string{"server.optimize", "server.optimize.batch", "server.optimize.submit", "server.optimize.result"}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		dump, _ := s.Traces().Get(caller.TraceID())
		var missing []string
		for _, route := range routes {
			if !slices.ContainsFunc(dump.Spans, func(sp pdce.SpanRecord) bool { return sp.Name == route }) {
				missing = append(missing, route)
			}
		}
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the caller's trace %s lacks pdced's root spans for %v", caller.TraceID(), missing)
		}
	}
}

// TestClientReusesConnection: sequential calls share one connection.
// net/http reuses a connection only once a response body was read to
// its end, and a JSON decoder stops at the end of its value: here a
// tail of whitespace follows it, as a chunked response's last chunk can.
// A client that closes the body where the decoder stopped dials again
// for every call.
func TestClientReusesConnection(t *testing.T) {
	body, err := json.Marshal(pdce.OptimizeResponse{Name: "p", Mode: "pde", Program: "graph \"p\"\n"})
	if err != nil {
		t.Fatal(err)
	}
	tail := bytes.Repeat([]byte(" "), 4<<10)
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		w.Write(tail)
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := pdce.NewClient(ts.URL)
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, _, err := c.Optimize(context.Background(), "", "out(1)\n", pdce.RequestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d sequential calls opened %d connections, want 1", calls, n)
	}
}

// TestClientContentLength: Optimize reads a reply whose Content-Length
// is wrong as a streaming decode of it does. A longer one succeeds when
// the whole object arrived before the connection closed; a shorter one
// succeeds when it cuts only bytes after the object, and fails when it
// cuts the object.
func TestClientContentLength(t *testing.T) {
	obj, err := json.Marshal(pdce.OptimizeResponse{Name: "p", Mode: "pde", Program: "graph \"p\"\n"})
	if err != nil {
		t.Fatal(err)
	}
	body := append(obj, "\n\n"...)
	for _, tc := range []struct {
		name     string
		sent     []byte
		declared int
		wantErr  bool
	}{
		{"exact", body, len(body), false},
		{"longer, whole object sent", body, len(body) + 100, false},
		{"longer, object cut", obj[:len(obj)-1], len(body), true},
		{"shorter, cutting the tail", body, len(obj), false},
		{"shorter, cutting the object", body, len(obj) - 1, true},
		{"zero", body, 0, true},
	} {
		reply := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", tc.declared, tc.sent)
		addr := replyOnce(t, reply)
		// Without keep-alives the bytes past a short Content-Length are
		// not read as a stray reply on an idle connection.
		c := pdce.NewClient("http://" + addr).WithHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}})
		_, _, err := c.Optimize(context.Background(), "", "out(1)\n", pdce.RequestOptions{})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: error %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

// replyOnce listens on a loopback port, answers the first request with
// the raw bytes reply and closes the connection. It returns the address.
func replyOnce(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return // the listener closed first
		}
		defer conn.Close()
		// Read the whole request, so closing sends no reset.
		if req, err := http.ReadRequest(bufio.NewReader(conn)); err == nil {
			io.Copy(io.Discard, req.Body)
			io.WriteString(conn, reply)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// BenchmarkClientOptimizeWarm is one warm Client.Optimize against an
// in-process pdced over loopback HTTP: the body's bytes were sent
// before and L1 holds its result, as on pdcebench's serve-warm. It
// cycles over 16 programs of 512 statements; client and server share
// the measured time and allocations.
func BenchmarkClientOptimizeWarm(b *testing.B) {
	s, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := pdce.NewClient(ts.URL)
	ctx := context.Background()
	srcs := make([]string, 16)
	for i := range srcs {
		srcs[i] = pdce.Generate(pdce.GenParams{Seed: int64(i), Stmts: 512}).Format()
		if _, _, err := c.Optimize(ctx, "", srcs[i], pdce.RequestOptions{}); err != nil {
			b.Fatalf("filling: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, state, err := c.Optimize(ctx, "", srcs[i%len(srcs)], pdce.RequestOptions{}); err != nil || state != pdce.CacheHit {
			b.Fatalf("request %d: cache %q, error %v; want a hit", i, state, err)
		}
	}
}
