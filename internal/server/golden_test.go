package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/obs"
	"pdce/internal/server"
	"pdce/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// serveOne sends one request straight to h and fails unless it answers
// want. Driving the handler in-process, not over a socket, makes each
// request's root span end before the next request starts, so the trace
// store's sampling decisions come in a fixed order.
func serveOne(t *testing.T, h http.Handler, method, target, body string, want int) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	if w.Code != want {
		t.Fatalf("%s %s: status %d, want %d: %s", method, target, w.Code, want, w.Body)
	}
	return w.Body.Bytes()
}

// Values that depend on the clock or on random ids (latencies, ages,
// uptime, and byte sizes, which count request and trace ids) are
// masked before the comparison.
var (
	maskJSON = regexp.MustCompile(`("[a-z0-9_]*(?:_ns|_ms|bytes)"):-?[0-9][0-9.e+-]*`)
	maskProm = regexp.MustCompile(`(?m)^(pdce_[a-z0-9_]*(?:_ns|_ms|bytes)(?:\{[^}]*\})?) .*$`)
)

// TestMetricsGolden pins the wire form of /metrics: one server with a
// queue directory, a MemStore and seeded tracing serves a fixed request
// sequence, one request at a time, and drains. Its /metrics JSON and
// Prometheus bodies, timing masked, must equal testdata/metrics.golden,
// which also holds the JSON of a zero pdceload ClientSnapshot and a
// zero batch progress report. A field that is added, deleted, renamed,
// reordered or counted differently fails it. Run
// `go test ./internal/server -run MetricsGolden -update` after an
// intended change, and say in the change which values moved.
func TestMetricsGolden(t *testing.T) {
	shared := store.NewMemStore()

	// Another replica solves and publishes warm, so that the server
	// under test has one result in L2 and none in L1.
	const warm = "w := a + b\nout(w)\n"
	other, err := server.New(server.Config{Store: shared, TraceCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	serveOne(t, other.Handler(), "POST", "/optimize?name=warm", warm, http.StatusOK)
	drainServer(t, other)

	s, err := server.New(server.Config{
		QueueDir:     t.TempDir(),
		QueueBackoff: time.Millisecond,
		Store:        shared,
		MaxInFlight:  2,
		TraceSample:  0.5,
		TraceSeed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const (
		hot    = "y := a + b\nif * {\n    y := c\n}\nout(x + y)\n"
		cold   = "z := p * q\nif * {\n    z := r\n}\nout(z)\n"
		batchy = "v := m - n\nout(v)\n"
		broken = "y := := 1\n"
	)
	serveOne(t, h, "POST", "/optimize?name=hot", hot, http.StatusOK)            // miss
	serveOne(t, h, "POST", "/optimize?name=hot", hot, http.StatusOK)            // L1 hit
	serveOne(t, h, "POST", "/optimize?name=warm", warm, http.StatusOK)          // L2 hit
	serveOne(t, h, "POST", "/optimize?name=hot&mode=pfe", hot, http.StatusOK)   // miss
	serveOne(t, h, "POST", "/optimize?name=bad", broken, http.StatusBadRequest) // parse failure

	var sub pdce.SubmitResponse
	body := serveOne(t, h, "POST", "/optimize/submit?name=cold", cold, http.StatusAccepted)
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// The job runs on a queue worker. Wait until its execution span
	// has ended, which comes after it is counted done.
	waitFor(t, "the job's execution span", func() bool {
		return s.Traces().Snapshot().Stages["queue.execute"].Count == 1
	})
	serveOne(t, h, "GET", "/optimize/result/"+sub.ID, "", http.StatusOK)
	serveOne(t, h, "GET", "/optimize/result/"+sub.ID+"?ack=1", "", http.StatusOK)
	serveOne(t, h, "POST", "/optimize/submit?name=hot", hot, http.StatusOK) // cached

	breq, err := json.Marshal(pdce.BatchOptimizeRequest{Mode: "pde", Programs: []pdce.BatchProgram{
		{Name: "batchy", Source: batchy}, {Name: "hot", Source: hot}, {Name: "bad", Source: broken},
	}})
	if err != nil {
		t.Fatal(err)
	}
	serveOne(t, h, "POST", "/optimize/batch", string(breq), http.StatusOK)
	drainServer(t, s)

	var got bytes.Buffer
	got.WriteString("== GET /metrics\n")
	js := serveOne(t, h, "GET", "/metrics", "", http.StatusOK)
	if err := json.Indent(&got, maskJSON.ReplaceAll(js, []byte(`$1:"*"`)), "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteString("== GET /metrics?format=prom\n")
	got.Write(maskProm.ReplaceAll(serveOne(t, h, "GET", "/metrics?format=prom", "", http.StatusOK), []byte("$1 *")))
	for _, v := range []struct {
		title string
		v     any
	}{
		{"obs.ClientSnapshot with one replica", obs.ClientSnapshot{Replicas: map[string]obs.ReplicaCounters{"http://replica": {}}}},
		{"pdce.BatchProgress", pdce.BatchProgress{}},
	} {
		js, err := json.Marshal(v.v)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("== " + v.title + "\n")
		json.Indent(&got, js, "", "  ")
		got.WriteString("\n")
	}

	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics drifted from %s (re-run with -update if intended)\n--- got ---\n%s", golden, got.Bytes())
	}
}
