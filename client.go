package pdce

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// The request key. A pdced result is a pure function of (canonical
// program, options) (Theorem 3.7), so pdced caches it under a content
// address and Pool routes each request to the replica that holds it.
// Parse, Options and Key are that address's one derivation: pdced
// serves by them, Pool routes by them and cmd/pdce parses by them, so
// the routing key is the served key.

// Parse parses source in the language o.Lang names: "" detects it
// (DetectLang), "cfg" and "while" force it, and anything else is an
// error. name names a WHILE program's graph ("" names it "request",
// pdced's default); a CFG program names itself.
func (o RequestOptions) Parse(name, source string) (*Program, error) {
	lang := o.Lang
	if lang == "" {
		lang = DetectLang(source)
	}
	switch lang {
	case "cfg":
		return ParseCFG(source)
	case "while":
		if name == "" {
			name = "request"
		}
		return ParseSource(name, source)
	}
	return nil, fmt.Errorf("unknown lang %q (want cfg or while)", lang)
}

// Options are the library options o's program runs under. A provenance
// report needs the event stream, so Explain implies Trace.
func (o RequestOptions) Options() Options {
	return Options{Mode: o.Mode, MaxRounds: o.MaxRounds, Telemetry: o.Telemetry, Trace: o.Trace || o.Explain != ""}
}

// Key is the content address prog's result under o is cached and
// routed by: prog.CacheKey(o.Options()), hashed again with the explain
// variable when one is set, since explain selects a different body from
// the same run.
func (o RequestOptions) Key(prog *Program) string {
	key := prog.CacheKey(o.Options())
	if o.Explain == "" {
		return key
	}
	sum := sha256.Sum256([]byte(key + "|explain=" + o.Explain))
	return hex.EncodeToString(sum[:])
}

// Optimize submits one program and returns the optimized result plus
// the cache state from the X-Pdced-Cache header. Non-2xx responses
// return a *ServerError; a Degraded response (deadline, rollback) is
// returned as a result, not an error — check resp.Degraded.
func (c *Client) Optimize(ctx context.Context, name, source string, o RequestOptions) (*OptimizeResponse, CacheState, error) {
	resp, err := c.send(ctx, "/optimize?"+o.query(name), "text/plain", strings.NewReader(source))
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
	return do[BatchOptimizeResponse](ctx, c, "/optimize/batch", "application/json", bytes.NewReader(body))
}

// Submit enqueues one program on the server's durable async queue
// (POST /optimize/submit) and returns the submission receipt. A 202
// receipt means the job is durably logged server-side: it survives a
// server crash and can be polled — across restarts — at Result with
// the receipt's ID. Explain is rejected by the server on async
// submissions.
func (c *Client) Submit(ctx context.Context, name, source string, o RequestOptions) (*SubmitResponse, error) {
	return do[SubmitResponse](ctx, c, "/optimize/submit?"+o.query(name), "text/plain", strings.NewReader(source))
}

// Result fetches one async job's state (GET /optimize/result/{id}).
// With ack true a terminal job is acknowledged — the server may then
// forget it, so ack only after the result is safely consumed.
func (c *Client) Result(ctx context.Context, id string, ack bool) (*JobResult, error) {
	path := "/optimize/result/" + url.PathEscape(id)
	if ack {
		path += "?ack=1"
	}
	return do[JobResult](ctx, c, path, "", nil)
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
	resp, err := c.send(ctx, "/healthz", "", nil)
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
	return do[ServerMetrics](ctx, c, "/metrics", "", nil)
}

// Traces lists the server's retained request traces, newest first
// (GET /debug/traces). limit bounds the listing (0 = server default).
func (c *Client) Traces(ctx context.Context, limit int) (*TraceList, error) {
	path := "/debug/traces"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	return do[TraceList](ctx, c, path, "", nil)
}

// TraceByID fetches one retained trace's span tree
// (GET /debug/traces/{id}). A 404 — never recorded, sampled out, or
// evicted — is returned as a *ServerError with Kind "not-found".
func (c *Client) TraceByID(ctx context.Context, id string) (*TraceDump, error) {
	return do[TraceDump](ctx, c, "/debug/traces/"+url.PathEscape(id), "", nil)
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
	out, err := do[map[string]int](ctx, c, "/debug/traces", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return (*out)["ingested"], nil
}

// send is the request half every call shares: one request to path,
// bound to ctx and carrying the span ctx holds (ContextWithSpan) as its
// W3C traceparent header, so the server's root span joins the caller's
// trace. A nil body is a GET, any other a POST of type ctype.
func (c *Client) send(ctx context.Context, path, ctype string, body io.Reader) (*http.Response, error) {
	method := http.MethodPost
	if body == nil {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	if sc := SpanFromContext(ctx).Context(); sc.Valid() {
		req.Header.Set("Traceparent", sc.Traceparent())
	}
	return c.hc.Do(req)
}

// do is one JSON round trip: send, then a status other than 200 or 202
// comes back as a *ServerError, and otherwise the reply decodes as a T.
// The body is drained and closed either way.
func do[T any](ctx context.Context, c *Client, path, ctype string, body io.Reader) (*T, error) {
	resp, err := c.send(ctx, path, ctype, body)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, decodeServerError(resp)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		route, _, _ := strings.Cut(path, "?")
		return nil, fmt.Errorf("pdced: decoding %s response: %w", route, err)
	}
	return &out, nil
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
