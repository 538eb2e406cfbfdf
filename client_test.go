package pdce_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

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
