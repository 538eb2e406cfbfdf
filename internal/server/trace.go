package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"pdce/internal/obs"
)

// Request tracing and identification middleware.
//
// Every response — including 429 shed, 500 panic, and 503 drain paths,
// which never reach a handler's happy path — carries a stable
// Pdce-Request-Id (echoed from the request when the caller set one,
// minted otherwise). With tracing enabled, every optimize-family
// request additionally runs under a root span that joins the caller's
// W3C traceparent when present, and the response carries Pdce-Trace-Id
// so callers and operators can pull the trace from /debug/traces/{id}.

// Wire header names. The request id doubles as the repro-bundle tag:
// a 500's bundle filename contains the same id the response echoed.
const (
	HeaderRequestID   = "Pdce-Request-Id"
	HeaderTraceID     = "Pdce-Trace-Id"
	HeaderTraceparent = "Traceparent"
)

type requestIDKey struct{}

// requestIDFrom returns the request's id installed by the middleware
// ("" outside a middleware-wrapped handler, i.e. only in direct
// handler unit tests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the root span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// sanitizeRequestID keeps caller-supplied request ids header- and
// filename-safe; anything dubious is replaced with a fresh id.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return obs.NewRequestID()
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (c < '0' || c > '9') && c != '-' && c != '_' && c != '.' {
			return obs.NewRequestID()
		}
	}
	return id
}

// routeSpanName maps a request to its root span's stage name, "" for
// routes that are not traced (health, metrics, and the debug surface
// itself — tracing the trace reader would fill the store with noise).
func routeSpanName(r *http.Request) string {
	switch {
	case r.URL.Path == "/optimize" && r.Method == http.MethodPost:
		return "server.optimize"
	case r.URL.Path == "/optimize/batch":
		return "server.optimize.batch"
	case r.URL.Path == "/optimize/submit":
		return "server.optimize.submit"
	case strings.HasPrefix(r.URL.Path, "/optimize/result/"):
		return "server.optimize.result"
	}
	return ""
}

// withObservability wraps the whole handler surface: request-id echo
// on every response, and a root span per traced route when the trace
// store is enabled.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get(HeaderRequestID))
		w.Header().Set(HeaderRequestID, rid)
		ctx := context.WithValue(r.Context(), requestIDKey{}, rid)

		name := routeSpanName(r)
		if s.traces == nil || name == "" {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}

		parent, _ := obs.ParseTraceparent(r.Header.Get(HeaderTraceparent))
		span := s.traces.StartSpan(name, "pdced", parent)
		span.SetAttr("request_id", rid)
		w.Header().Set(HeaderTraceID, span.TraceID())
		ctx = obs.ContextWithSpan(ctx, span)

		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			span.SetInt("status", int64(status))
			if status >= 400 {
				// Any failed response makes the trace an always-keep:
				// 429s and 500s are exactly what the tail sampler must
				// never drop.
				span.SetError("http-" + strconv.Itoa(status))
			}
			span.End()
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// handleTraces lists retained traces, newest first. Query parameter
// limit bounds the listing (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.httpError(w, http.StatusServiceUnavailable, "traces-disabled",
			"request tracing is disabled (trace store capacity 0)", "")
		return
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.httpError(w, http.StatusBadRequest, "bad-request", "bad limit "+strconv.Quote(v), "")
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.traces.Summaries(limit))
}

// handleTraceByID serves one retained trace's span tree.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.httpError(w, http.StatusServiceUnavailable, "traces-disabled",
			"request tracing is disabled (trace store capacity 0)", "")
		return
	}
	dump, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		s.httpError(w, http.StatusNotFound, "not-found",
			"unknown trace id (never recorded, sampled out, or evicted)", "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(dump)
}

// handleTraceIngest merges externally-recorded spans (the pool client
// exports its side of each request here, so one trace shows both
// processes). Body: JSON array of span records.
func (s *Server) handleTraceIngest(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.httpError(w, http.StatusServiceUnavailable, "traces-disabled",
			"request tracing is disabled (trace store capacity 0)", "")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), "")
		return
	}
	var recs []obs.SpanRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad-request", "decoding spans: "+err.Error(), "")
		return
	}
	n := s.traces.Ingest(recs)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"ingested": n})
}
