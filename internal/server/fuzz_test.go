package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/server"
)

// serveRaw sends one POST with a raw, possibly malformed query string
// straight through the handler, so a panic anywhere below surfaces in
// the caller instead of being recovered by an HTTP server.
func serveRaw(h http.Handler, path, query, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// FuzzOptimizeRequest drives the request decoders of POST /optimize
// (query and body) and POST /optimize/batch (body) with arbitrary
// input. Nothing may panic. /optimize answers 200 or 400: a 400 is a
// ServerError of kind bad-request or parse; a 200 is an
// OptimizeResponse whose program parses as CFG text and whose mode
// echoes the request, and repeating a non-degraded 200 answers a cache
// hit with the same bytes, whose key is the key of the request's own
// parse (the repeat's key comes from the request memo). The batch
// endpoint answers 400, or 200 with one entry per program.
func FuzzOptimizeRequest(f *testing.F) {
	batch, err := json.Marshal(pdce.BatchOptimizeRequest{
		Mode: "pde",
		Programs: []pdce.BatchProgram{
			{Name: "ok1", Source: demoSource},
			{Name: "broken", Source: "if { nope"},
			{Name: "ok2", Source: "x := a\nout(x)\n"},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct{ query, src string }{
		{"mode=nonsense", "out(1)\n"},
		{"max_rounds=minus", "out(1)\n"},
		{"", "if { broken"},
		{"lang=cfg", "out(1)\n"},
		{"name=demo&explain=y", demoSource},
		{"name=demo&mode=pfe&max_rounds=1&deadline_ms=1000&telemetry=1", demoSource},
	} {
		f.Add(seed.query, seed.src, string(batch))
	}
	corpus, err := filepath.Glob("../../testdata/corpus/*")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no corpus programs: %v", err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		one, err := json.Marshal(pdce.BatchOptimizeRequest{
			Mode:     "pfe",
			Programs: []pdce.BatchProgram{{Name: filepath.Base(path), Source: string(src)}},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add("name="+filepath.Base(path)+"&mode=pfe&trace=1", string(src), string(one))
	}

	// The default deadline bounds any slow input; a run it cuts short
	// answers a degraded 200.
	srv, err := server.New(server.Config{DefaultDeadline: 2 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, query, src, batch string) {
		rec := serveRaw(h, "/optimize", query, src)
		body := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusBadRequest:
			var se pdce.ServerError
			if err := json.Unmarshal(body, &se); err != nil || (se.Kind != "bad-request" && se.Kind != "parse") {
				t.Fatalf("400 body %q: kind %q, err %v", body, se.Kind, err)
			}
		case http.StatusOK:
			var resp pdce.OptimizeResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("200 body %q: %v", body, err)
			}
			if _, err := pdce.ParseCFG(resp.Program); err != nil {
				t.Fatalf("returned program does not parse: %v\n%s", err, resp.Program)
			}
			// The handler reads the query just as leniently
			// (URL.Query drops the parse error too).
			q, _ := url.ParseQuery(query)
			want := "pde"
			if q.Get("mode") == "pfe" {
				want = "pfe"
			}
			if resp.Mode != want {
				t.Fatalf("mode %q, want %q", resp.Mode, want)
			}
			if !resp.Degraded {
				again := serveRaw(h, "/optimize", query, src)
				if again.Code != http.StatusOK || again.Header().Get("X-Pdced-Cache") != string(pdce.CacheHit) ||
					!bytes.Equal(again.Body.Bytes(), body) {
					t.Fatalf("repeat: status %d, cache %q, same bytes %v",
						again.Code, again.Header().Get("X-Pdced-Cache"), bytes.Equal(again.Body.Bytes(), body))
				}
				var repeat pdce.OptimizeResponse
				if err := json.Unmarshal(again.Body.Bytes(), &repeat); err != nil {
					t.Fatal(err)
				}
				if want, err := server.RequestKey(query, src); err != nil || repeat.Key != want {
					t.Fatalf("repeat key %s, the request's own parse gives %s (%v)", repeat.Key, want, err)
				}
			}
		default:
			t.Fatalf("/optimize answered %d: %s", rec.Code, body)
		}

		rec = serveRaw(h, "/optimize/batch", "", batch)
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var req pdce.BatchOptimizeRequest
			if err := json.NewDecoder(strings.NewReader(batch)).Decode(&req); err != nil {
				t.Fatalf("batch accepted a body that does not decode: %v", err)
			}
			var resp pdce.BatchOptimizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("batch 200 body: %v", err)
			}
			if len(resp.Results) != len(req.Programs) {
				t.Fatalf("batch: %d results for %d programs", len(resp.Results), len(req.Programs))
			}
		default:
			t.Fatalf("/optimize/batch answered %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
