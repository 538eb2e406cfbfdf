package pdce

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a small HTTP client for the pdced optimization service.
// The zero value is not usable; construct with NewClient. Methods are
// safe for concurrent use (the underlying http.Client is).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the pdced server at baseURL (e.g.
// "http://localhost:8723"). A trailing slash is tolerated.
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
}

// WithHTTPClient substitutes the transport (custom timeouts, test
// doubles) and returns the same client for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// RequestOptions configures one Optimize call. The zero value requests
// a plain pde run with the server's default deadline.
type RequestOptions struct {
	// Mode selects pde (Dead, the default) or pfe (Faint).
	Mode Mode
	// MaxRounds truncates the fixpoint (0 = optimum).
	MaxRounds int
	// Deadline bounds this request's optimization (0 = the server's
	// default). On expiry the server returns the best partial result,
	// marked Degraded.
	Deadline time.Duration
	// Telemetry includes solver metrics in the response's Stats; Trace
	// additionally records provenance events (implied by Explain).
	Telemetry bool
	Trace     bool
	// Explain asks for the named variable's provenance report.
	Explain string
	// Lang forces the input language ("cfg" or "while"; empty =
	// auto-detect).
	Lang string
}

// query encodes o and the program name as the query string /optimize
// and /optimize/submit read.
func (o RequestOptions) query(name string) string {
	q := url.Values{}
	if name != "" {
		q.Set("name", name)
	}
	q.Set("mode", o.Mode.String())
	if o.MaxRounds > 0 {
		q.Set("max_rounds", strconv.Itoa(o.MaxRounds))
	}
	if o.Deadline > 0 {
		q.Set("deadline_ms", strconv.FormatInt(o.Deadline.Milliseconds(), 10))
	}
	if o.Telemetry {
		q.Set("telemetry", "1")
	}
	if o.Trace {
		q.Set("trace", "1")
	}
	if o.Explain != "" {
		q.Set("explain", o.Explain)
	}
	if o.Lang != "" {
		q.Set("lang", o.Lang)
	}
	return q.Encode()
}

// Optimize submits one program and returns the optimized result plus
// the cache state from the X-Pdced-Cache header. Non-2xx responses
// return a *ServerError; a Degraded response (deadline, rollback) is
// returned as a result, not an error — check resp.Degraded.
func (c *Client) Optimize(ctx context.Context, name, source string, o RequestOptions) (*OptimizeResponse, CacheState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/optimize?"+o.query(name), strings.NewReader(source))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "text/plain")
	injectTraceContext(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, "", decodeServerError(resp)
	}
	// One buffer, sized from Content-Length, read to EOF so the
	// connection is reused.
	var buf bytes.Buffer
	buf.Grow(int(min(max(resp.ContentLength, 0), maxPresize)) + bytes.MinRead)
	_, rerr := buf.ReadFrom(resp.Body)
	var out OptimizeResponse
	if err := decodeOptimizeResponse(buf.Bytes(), &out); err != nil {
		// A streaming decoder succeeds if the object arrived before a
		// read failed, and otherwise reports the read's failure.
		if rerr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			err = rerr
		}
		return nil, "", fmt.Errorf("pdced: decoding optimize response: %w", err)
	}
	return &out, CacheState(resp.Header.Get("X-Pdced-Cache")), nil
}

// maxPresize caps what a reply's Content-Length makes Optimize
// allocate before the bytes arrive; a longer body grows as it is read.
// It is the largest body the fleet stores (store.MaxBlobBytes).
const maxPresize = 16 << 20

// OptimizeBatch submits a batch of programs in one request. Per-program
// failures (parse errors, shed jobs, degraded results) are reported in
// the entries, not as a call error.
func (c *Client) OptimizeBatch(ctx context.Context, breq BatchOptimizeRequest) (*BatchOptimizeResponse, error) {
	body, err := json.Marshal(breq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/optimize/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeServerError(resp)
	}
	var out BatchOptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("pdced: decoding batch response: %w", err)
	}
	return &out, nil
}

// Submit enqueues one program on the server's durable async queue
// (POST /optimize/submit) and returns the submission receipt. A 202
// receipt means the job is durably logged server-side: it survives a
// server crash and can be polled — across restarts — at Result with
// the receipt's ID. Explain is rejected by the server on async
// submissions.
func (c *Client) Submit(ctx context.Context, name, source string, o RequestOptions) (*SubmitResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/optimize/submit?"+o.query(name), strings.NewReader(source))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	injectTraceContext(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, decodeServerError(resp)
	}
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("pdced: decoding submit response: %w", err)
	}
	return &out, nil
}

// Result fetches one async job's state (GET /optimize/result/{id}).
// With ack true a terminal job is acknowledged — the server may then
// forget it, so ack only after the result is safely consumed.
func (c *Client) Result(ctx context.Context, id string, ack bool) (*JobResult, error) {
	u := c.base + "/optimize/result/" + url.PathEscape(id)
	if ack {
		u += "?ack=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeServerError(resp)
	}
	var out JobResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("pdced: decoding job result: %w", err)
	}
	return &out, nil
}

// Poll polls Result every interval until the job reaches a terminal
// state (done or failed) or ctx expires. Transport failures and 5xx
// answers do not abort the poll — the server may be mid-restart, and a
// durably-logged job will be there when it returns — so the only error
// Poll returns of its own accord is ctx's.
func (c *Client) Poll(ctx context.Context, id string, interval time.Duration) (*JobResult, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		res, err := c.Result(ctx, id, false)
		if err == nil && (res.State == JobDone || res.State == JobFailed) {
			return res, nil
		}
		if ctx.Err() != nil {
			if err == nil {
				err = ctx.Err()
			}
			return nil, err
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Health probes GET /healthz and returns the reported status ("ok" or
// "draining"). A draining server reports its status without error; a
// transport failure returns one. Any other non-2xx answer — say a
// proxy's 502 with an HTML body — is returned as a *ServerError, never
// misreported as a JSON decode failure.
func (c *Client) Health(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer closeBody(resp)
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	// A real pdced answers 200 ("ok") or 503 ("draining"); both carry
	// the HealthResponse shape. Anything else is not the health
	// endpoint talking — route it through the error decoder.
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusServiceUnavailable {
		var h HealthResponse
		if json.Unmarshal(body, &h) == nil && h.Status != "" {
			return h.Status, nil
		}
	}
	if resp.StatusCode/100 == 2 {
		return "", fmt.Errorf("pdced: decoding health response: unexpected body %q", truncate(body, 128))
	}
	return "", serverErrorFromResponse(resp, body)
}

// Metrics fetches GET /metrics.
func (c *Client) Metrics(ctx context.Context) (*ServerMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeServerError(resp)
	}
	var m ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("pdced: decoding metrics response: %w", err)
	}
	return &m, nil
}

// injectTraceContext propagates the span attached to ctx (via
// ContextWithSpan) as the W3C traceparent header, so the server-side
// root span joins the caller's trace instead of starting a fresh one.
// Without a span on the context the request goes out unmarked.
func injectTraceContext(ctx context.Context, req *http.Request) {
	if sc := SpanFromContext(ctx).Context(); sc.Valid() {
		req.Header.Set("Traceparent", sc.Traceparent())
	}
}

// Traces lists the server's retained request traces, newest first
// (GET /debug/traces). limit bounds the listing (0 = server default).
func (c *Client) Traces(ctx context.Context, limit int) (*TraceList, error) {
	u := c.base + "/debug/traces"
	if limit > 0 {
		u += "?limit=" + strconv.Itoa(limit)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeServerError(resp)
	}
	var out TraceList
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("pdced: decoding trace list: %w", err)
	}
	return &out, nil
}

// TraceByID fetches one retained trace's span tree
// (GET /debug/traces/{id}). A 404 — never recorded, sampled out, or
// evicted — is returned as a *ServerError with Kind "not-found".
func (c *Client) TraceByID(ctx context.Context, id string) (*TraceDump, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/debug/traces/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeServerError(resp)
	}
	var out TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("pdced: decoding trace: %w", err)
	}
	return &out, nil
}

// PushTraces exports locally-recorded spans to the server's trace
// store (POST /debug/traces), returning the count the server accepted.
// The Pool uses this to ship its client-side spans so one trace shows
// both sides of a request.
func (c *Client) PushTraces(ctx context.Context, spans []SpanRecord) (int, error) {
	body, err := json.Marshal(spans)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/debug/traces", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, decodeServerError(resp)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("pdced: decoding ingest response: %w", err)
	}
	return out["ingested"], nil
}

// maxDrain bounds what closeBody reads of an unread response tail.
const maxDrain = 64 << 10

// closeBody drains what is left of a response body, up to maxDrain
// bytes, and closes it. A decoder stops at the end of its JSON value,
// before the body's end (a chunked body's last chunk, say), and net/http
// reuses a connection only when its body was read to EOF: without the
// drain every call would dial a new connection.
func closeBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
	resp.Body.Close()
}

// decodeServerError turns a non-2xx response into a *ServerError,
// tolerating non-JSON bodies (proxies, panics before the handler).
func decodeServerError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return serverErrorFromResponse(resp, body)
}

// serverErrorFromResponse is decodeServerError over an already-read
// body (Health reads the body before deciding how to interpret it).
func serverErrorFromResponse(resp *http.Response, body []byte) error {
	se := &ServerError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			se.RetryAfter = n
		}
	}
	if err := json.Unmarshal(body, se); err != nil || se.Message == "" {
		se.Message = strings.TrimSpace(string(body))
		if se.Message == "" {
			se.Message = http.StatusText(resp.StatusCode)
		}
	}
	return se
}

// truncate bounds b for inclusion in an error message.
func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		s = s[:n] + "..."
	}
	return s
}
