package pdce

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdce/internal/faultinject"
	"pdce/internal/obs"
)

// Pool is a cluster-aware client for a set of pdced replicas. It
// layers four behaviours over the single-replica Client:
//
//   - Affinity routing: requests are routed by consistent hashing over
//     the request's content address (RequestOptions.Key), so repeated
//     submissions of the same program land on the replica whose LRU
//     already holds the byte-identical result. Because the optimizer
//     is deterministic (DESIGN.md §9), replica choice is purely a
//     cache-locality decision — any replica returns the same bytes.
//   - Health-driven membership: replicas that fail /healthz, report
//     draining, or error at the transport level are ejected from
//     routing and probed back in by a background prober.
//   - Bounded retry: failed attempts back off exponentially with
//     jitter and fail over to the next ring member; a server-sent
//     Retry-After (429/503) is honored as a per-replica cooldown.
//   - Hedging (opt-in): a second replica is raced after a p95-derived
//     delay; the first response wins and the loser is cancelled. A
//     warm ring makes hedges nearly free — the hedge target answers
//     from its cache or coalesces onto an in-flight computation.
//
// Construct with NewPool, stop the prober with Close. Methods are safe
// for concurrent use.
type Pool struct {
	opts    PoolOptions
	members []*member
	ring    []ringSlot
	stats   *obs.ClientStats
	jitter  *lockedRand

	// sleep is the backoff clock, injectable so retry tests observe
	// requested delays instead of serving them in real time.
	sleep func(ctx context.Context, d time.Duration) error

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// PoolOptions configures a Pool. The zero value selects the defaults
// documented per field.
type PoolOptions struct {
	// HTTPClient substitutes the transport shared by every replica
	// client (custom timeouts, test doubles).
	HTTPClient *http.Client
	// Retry bounds the failover loop (see RetryPolicy).
	Retry RetryPolicy
	// VirtualNodes is the number of ring points per replica (default
	// 64). More points smooth the key distribution at the cost of a
	// larger ring.
	VirtualNodes int
	// ProbeInterval is the background health-probe period (default 2s;
	// negative disables the prober — ejected replicas then return only
	// via an explicit Probe call). ProbeTimeout bounds each probe
	// (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Hedge enables hedged requests: when a primary attempt has not
	// answered after HedgeDelay, a second replica is raced against it.
	// HedgeDelay 0 derives the delay from the pool's observed p95
	// latency (50ms until enough samples exist).
	Hedge      bool
	HedgeDelay time.Duration
	// Seed seeds the backoff jitter (0 = wall clock). Fixing it makes
	// retry schedules reproducible in tests.
	Seed int64
	// Traces, when set, records a client-side span tree per request —
	// one root ("client.request"/"client.submit", service "pool") with
	// a child per attempt and hedge — and, after a success, exports the
	// completed trace to the winning replica's /debug/traces so server
	// and client halves meet in one store. Nil disables tracing at the
	// cost of one pointer check per request.
	Traces *obs.TraceStore
}

func (o PoolOptions) withDefaults() PoolOptions {
	o.Retry = o.Retry.withDefaults()
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	return o
}

// member is one replica: its client, health flag, and server-directed
// cooldown deadline (unix nanoseconds; 0 = none).
type member struct {
	base     string
	client   *Client
	healthy  atomic.Bool
	cooldown atomic.Int64
}

func (m *member) cooldownLeft(now time.Time) time.Duration {
	until := m.cooldown.Load()
	if until == 0 {
		return 0
	}
	if left := time.Duration(until - now.UnixNano()); left > 0 {
		return left
	}
	return 0
}

// ringSlot is one virtual node of the consistent-hash ring.
type ringSlot struct {
	hash uint64
	m    *member
}

// NewPool builds a pool over the given replica base URLs (at least
// one; duplicates are rejected) and starts the health prober.
func NewPool(replicas []string, opts PoolOptions) (*Pool, error) {
	if len(replicas) == 0 {
		return nil, errors.New("pdce: pool needs at least one replica")
	}
	opts = opts.withDefaults()
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	p := &Pool{
		opts:   opts,
		stats:  &obs.ClientStats{},
		jitter: newLockedRand(seed),
		sleep:  sleepCtx,
		stop:   make(chan struct{}),
	}
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		base := strings.TrimRight(r, "/")
		if seen[base] {
			return nil, fmt.Errorf("pdce: duplicate pool replica %q", base)
		}
		seen[base] = true
		m := &member{base: base, client: NewClient(base).WithHTTPClient(hc)}
		m.healthy.Store(true)
		p.members = append(p.members, m)
	}
	for _, m := range p.members {
		for v := 0; v < opts.VirtualNodes; v++ {
			p.ring = append(p.ring, ringSlot{hash: hashKey(m.base + "#" + strconv.Itoa(v)), m: m})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
	if opts.ProbeInterval > 0 {
		p.wg.Add(1)
		go p.probeLoop()
	}
	return p, nil
}

// Close stops the background prober. The pool remains usable (routing
// keeps working on the last known health state).
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Stats exposes the pool's client-side counters.
func (p *Pool) Stats() *obs.ClientStats { return p.stats }

// Members reports each replica and its current health, in
// construction order.
func (p *Pool) Members() []MemberStatus {
	out := make([]MemberStatus, len(p.members))
	for i, m := range p.members {
		out[i] = MemberStatus{URL: m.base, Healthy: m.healthy.Load()}
	}
	return out
}

// MemberStatus is one replica's view in Members.
type MemberStatus struct {
	URL     string
	Healthy bool
}

// hashKey maps a string to a ring position. SHA-256 (truncated) rather
// than a fast non-cryptographic hash: vnode labels and test keys are
// near-identical short strings, and weak avalanche behaviour there
// clusters the ring badly enough to break balance.
func hashKey(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// candidates returns every replica in ring order starting at key's
// position: index 0 is the key's home replica, the rest the failover
// sequence. Health is deliberately not consulted here — the home
// assignment must be stable under churn so an ejected replica gets its
// keys back the moment it is readmitted.
func (p *Pool) candidates(key string) []*member {
	h := hashKey(key)
	start := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	out := make([]*member, 0, len(p.members))
	seen := make(map[*member]bool, len(p.members))
	for i := 0; i < len(p.ring) && len(out) < len(p.members); i++ {
		m := p.ring[(start+i)%len(p.ring)].m
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// affinityKey is the routing key for one request: the key pdced
// caches its result under, from the same RequestOptions methods the
// server calls. A source that does not parse falls back to a hash of
// its raw bytes — the server will reject it, but it still routes
// deterministically.
func (p *Pool) affinityKey(name, source string, o RequestOptions) string {
	prog, err := o.Parse(name, source)
	if err != nil {
		p.stats.ParseFallbacks.Add(1)
		sum := sha256.Sum256([]byte(o.Lang + "\x00" + name + "\x00" + source))
		return hex.EncodeToString(sum[:])
	}
	return o.Key(prog)
}

// reqBudget caps the wire requests of one logical call. Retries and
// hedges draw from the same pool — MaxAttempts bounds failover rounds,
// but with hedging each round can cost two requests, and the budget is
// what keeps that amplification bounded cluster-wide.
type reqBudget struct {
	mu   sync.Mutex
	left int
}

func (b *reqBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

// errRequestBudget aborts the failover loop once the per-call request
// budget (RetryPolicy.MaxTotalRequests) is spent.
var errRequestBudget = errors.New("pdce: per-request budget exhausted")

// Optimize submits one program to the cluster with affinity routing,
// retry, and (when enabled) hedging. The semantics match
// Client.Optimize: non-2xx outcomes surface as *ServerError, degraded
// results as 200s with resp.Degraded set. Deterministic failures (bad
// request, parse error, contained panic) are never retried — every
// replica would answer them identically.
func (p *Pool) Optimize(ctx context.Context, name, source string, o RequestOptions) (*OptimizeResponse, CacheState, error) {
	r, _, err := failover(ctx, p, "client.request", name, source, o, p.opts.Hedge,
		func(ctx context.Context, c *Client) (optimized, error) {
			resp, cs, err := c.Optimize(ctx, name, source, o)
			return optimized{resp, cs}, err
		},
		func(root *obs.Span, home bool, latency time.Duration, _ optimized) {
			p.stats.RecordLatency(latency)
			if home {
				p.stats.AffinityHits.Add(1)
				root.SetAttr("affinity", "hit")
			} else {
				p.stats.AffinityMisses.Add(1)
				root.SetAttr("affinity", "miss")
			}
		})
	return r.resp, r.cs, err
}

// optimized is one Client.Optimize answer.
type optimized struct {
	resp *OptimizeResponse
	cs   CacheState
}

// failover is the loop every Pool call runs: it routes the request by
// its affinity key, and for each attempt picks a replica, waits out
// its backoff and cooldown, and sends (hedged when hedge is set) within
// the per-call request budget. A failure that classify deems
// retryable fails over to the next attempt; any other, or a done ctx,
// ends the call. The call traces as a root span named op with a child
// per wire attempt. On success won records the call's own bookkeeping
// (home tells whether the key's home replica answered, latency how
// long the call took once routed) before the root span ends and the
// trace is exported to the winning replica, whose member is returned
// with its answer.
func failover[T any](ctx context.Context, p *Pool, op, name, source string, o RequestOptions, hedge bool,
	send func(context.Context, *Client) (T, error),
	won func(root *obs.Span, home bool, latency time.Duration, v T)) (v T, winner *member, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cands := p.candidates(p.affinityKey(name, source, o))
	start := time.Now()
	// The root span joins any caller-attached trace (e.g. a batch
	// driver tracing its own loop) and fathers one child per wire
	// attempt. It is nil — and every operation on it free — when
	// PoolOptions.Traces is unset.
	root := p.opts.Traces.StartSpan(op, "pool", obs.SpanFromContext(ctx).Context())
	root.SetAttr("program", name)
	defer func() {
		if err != nil {
			root.SetError(spanErrClass(ctx, err))
			root.End()
		}
	}()
	budget := &reqBudget{left: p.opts.Retry.MaxTotalRequests}
	var lastErr error
	for attempt := 0; attempt < p.opts.Retry.MaxAttempts; attempt++ {
		m, cooldown := p.pick(cands, attempt)
		delay := cooldown
		if attempt > 0 {
			if d := p.opts.Retry.delay(attempt, p.jitter.Float64); d > delay {
				delay = d
			}
		}
		if delay > 0 {
			if err := p.sleep(ctx, delay); err != nil {
				return v, nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return v, nil, err
		}
		var h *member
		if hedge {
			h = p.hedgeTarget(cands, m)
		}
		r := try(ctx, p, m, h, budget, root, attempt, send)
		if r.err == nil {
			won(root, r.m == cands[0], time.Since(start), r.v)
			root.SetAttr("replica", r.m.base)
			root.SetInt("attempts", int64(attempt+1))
			root.End()
			p.exportTrace(ctx, r.m, root.TraceID())
			return r.v, r.m, nil
		}
		if errors.Is(r.err, errRequestBudget) {
			if lastErr == nil {
				lastErr = r.err
			}
			return v, nil, fmt.Errorf("pdce: request budget (%d) exhausted: %w",
				p.opts.Retry.MaxTotalRequests, lastErr)
		}
		if ctx.Err() != nil || !classify(r.err).retry {
			return v, nil, r.err
		}
		lastErr = r.err
		p.stats.Failovers.Add(1)
	}
	return v, nil, fmt.Errorf("pdce: all %d attempts failed: %w", p.opts.Retry.MaxAttempts, lastErr)
}

// spanErrClass maps a pool-level failure to a span error class: the
// server's own failure kind when one came back, "canceled" for a
// caller-abandoned request, "transport" for everything that never got
// an HTTP answer.
func spanErrClass(ctx context.Context, err error) string {
	if ctx.Err() != nil {
		return "canceled"
	}
	var se *ServerError
	if errors.As(err, &se) {
		if se.Kind != "" {
			return se.Kind
		}
		return "http-" + strconv.Itoa(se.Status)
	}
	return "transport"
}

// exportTrace best-effort pushes the pool's half of a completed trace
// to the replica that answered, so /debug/traces/{id} there shows the
// full client→server tree. Failures are swallowed — exporting
// telemetry must never fail a request that already succeeded.
func (p *Pool) exportTrace(ctx context.Context, m *member, traceID string) {
	if p.opts.Traces == nil || traceID == "" {
		return
	}
	spans := p.opts.Traces.Export(traceID)
	if len(spans) == 0 {
		return // sampled out locally: nothing to ship
	}
	ectx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	m.client.PushTraces(ectx, spans)
}

// pick selects the replica for one attempt: the first healthy,
// cooldown-free candidate starting at the attempt's rotation; else the
// healthy one whose cooldown expires soonest (the returned duration is
// the wait the caller must honor — this is where a 429's Retry-After
// becomes a real delay); else, with every replica ejected, the
// rotation's candidate anyway — health data may be stale and a dead
// ring has nothing to lose.
func (p *Pool) pick(cands []*member, attempt int) (*member, time.Duration) {
	n := len(cands)
	now := time.Now()
	for i := 0; i < n; i++ {
		m := cands[(attempt+i)%n]
		if m.healthy.Load() && m.cooldownLeft(now) <= 0 {
			return m, 0
		}
	}
	var best *member
	var bestLeft time.Duration
	for i := 0; i < n; i++ {
		m := cands[(attempt+i)%n]
		if !m.healthy.Load() {
			continue
		}
		if left := m.cooldownLeft(now); best == nil || left < bestLeft {
			best, bestLeft = m, left
		}
	}
	if best != nil {
		return best, bestLeft
	}
	m := cands[attempt%n]
	return m, m.cooldownLeft(now)
}

// hedgeTarget returns the replica a hedge would race against primary:
// the next healthy, cooldown-free candidate after it (nil when no
// distinct target exists).
func (p *Pool) hedgeTarget(cands []*member, primary *member) *member {
	now := time.Now()
	idx := 0
	for i, m := range cands {
		if m == primary {
			idx = i
			break
		}
	}
	for i := 1; i < len(cands); i++ {
		m := cands[(idx+i)%len(cands)]
		if m != primary && m.healthy.Load() && m.cooldownLeft(now) <= 0 {
			return m
		}
	}
	return nil
}

// reply is one arm's outcome: m answered v, or failed with err.
type reply[T any] struct {
	v   T
	m   *member
	err error
}

// try performs one (possibly hedged) attempt. Failure side effects —
// failure counters, ejection, cooldown — are applied here for every
// failed arm, including a losing hedge; the caller only decides
// whether the returned error is worth another attempt. The primary
// send and the hedge each draw one request from the budget; a hedge
// the budget cannot fund is silently skipped, a primary it cannot
// fund aborts with errRequestBudget.
func try[T any](ctx context.Context, p *Pool, primary, hedge *member, budget *reqBudget, root *obs.Span, attemptNo int, send func(context.Context, *Client) (T, error)) reply[T] {
	if !budget.take() {
		return reply[T]{m: primary, err: errRequestBudget}
	}
	asp := root.Child("client.attempt")
	asp.SetAttr("replica", primary.base)
	asp.SetInt("attempt", int64(attemptNo))
	if hedge == nil {
		return sendTo(ctx, p, primary, asp, send)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan reply[T], 2) // buffered: the losing arm must never block
	go func() { resc <- sendTo(actx, p, primary, asp, send) }()
	timer := time.NewTimer(p.hedgeDelay())
	defer timer.Stop()
	outstanding, hedged := 1, false
	for {
		select {
		case r := <-resc:
			outstanding--
			if r.err == nil {
				if hedged && r.m == hedge {
					p.stats.HedgesWon.Add(1)
				}
				return r
			}
			if outstanding == 0 {
				return r
			}
		case <-timer.C:
			if !budget.take() {
				continue // the hedge is an optimization; the budget says no
			}
			hedged = true
			faultinject.Fire(faultinject.ClientHedge, hedge.base)
			p.stats.Hedges.Add(1)
			outstanding++
			hsp := root.Child("client.hedge")
			hsp.SetAttr("replica", hedge.base)
			go func() { resc <- sendTo(actx, p, hedge, hsp, send) }()
		case <-ctx.Done():
			return reply[T]{m: primary, err: ctx.Err()}
		}
	}
}

// sendTo performs one arm of an attempt against one replica and applies
// its failure side effects. sp is the arm's span (nil when tracing is
// off): attaching it to the context is what makes the Client stamp
// this arm's traceparent on the wire, so the server's root span becomes
// this arm's child — each hedge arm parents its own server-side
// subtree.
func sendTo[T any](ctx context.Context, p *Pool, m *member, sp *obs.Span, send func(context.Context, *Client) (T, error)) reply[T] {
	faultinject.Fire(faultinject.ClientDial, m.base)
	p.stats.Replica(m.base).Attempts.Add(1)
	v, err := send(obs.ContextWithSpan(ctx, sp), m.client)
	if err != nil {
		if ctx.Err() == nil {
			p.applyFailure(m, err)
		}
		sp.SetError(spanErrClass(ctx, err))
	}
	sp.End()
	return reply[T]{v, m, err}
}

func (p *Pool) applyFailure(m *member, err error) {
	p.stats.Replica(m.base).Failures.Add(1)
	dec := classify(err)
	if dec.eject {
		p.eject(m)
	}
	if dec.cooldown > 0 {
		m.cooldown.Store(time.Now().Add(dec.cooldown).UnixNano())
	}
}

func (p *Pool) hedgeDelay() time.Duration {
	if p.opts.HedgeDelay > 0 {
		return p.opts.HedgeDelay
	}
	if p95 := p.stats.P95(); p95 > 0 {
		return p95
	}
	return 50 * time.Millisecond
}

func (p *Pool) eject(m *member) {
	if m.healthy.CompareAndSwap(true, false) {
		p.stats.Replica(m.base).Ejections.Add(1)
	}
}

func (p *Pool) readmit(m *member) {
	if m.healthy.CompareAndSwap(false, true) {
		m.cooldown.Store(0)
		p.stats.Replica(m.base).Readmissions.Add(1)
	}
}

// --- health probing ---------------------------------------------------

func (p *Pool) probeLoop() {
	defer p.wg.Done()
	t := time.NewTimer(p.probeDelay())
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.Probe()
			t.Reset(p.probeDelay())
		}
	}
}

// probeDelay jitters the probe interval uniformly in [0.8, 1.2)× so a
// fleet of pools started together does not synchronize its health
// probes into a periodic thundering herd against the replicas.
func (p *Pool) probeDelay() time.Duration {
	return time.Duration(float64(p.opts.ProbeInterval) * (0.8 + 0.4*p.jitter.Float64()))
}

// Probe runs one synchronous health pass over every replica: /healthz
// answering "ok" readmits an ejected replica, anything else (draining,
// non-2xx, transport failure) ejects it. The background prober calls
// this every ProbeInterval; tests call it directly for deterministic
// membership transitions.
func (p *Pool) Probe() {
	for _, m := range p.members {
		ctx, cancel := context.WithTimeout(context.Background(), p.opts.ProbeTimeout)
		status, err := m.client.Health(ctx)
		cancel()
		if err == nil && status == "ok" {
			p.readmit(m)
		} else {
			p.eject(m)
		}
	}
}

// --- async submission -------------------------------------------------

// Submit enqueues one program on the cluster's durable async queues
// with affinity routing and retry (no hedging — a submission is one
// cheap fsync'd append, and racing two replicas would durably enqueue
// the job twice). It returns the receipt together with the base URL of
// the replica that accepted it: the queue is per-replica state, so
// result polls must go back to that replica (PollResult does).
func (p *Pool) Submit(ctx context.Context, name, source string, o RequestOptions) (*SubmitResponse, string, error) {
	resp, m, err := failover(ctx, p, "client.submit", name, source, o, false,
		func(ctx context.Context, c *Client) (*SubmitResponse, error) {
			return c.Submit(ctx, name, source, o)
		},
		func(root *obs.Span, _ bool, _ time.Duration, resp *SubmitResponse) {
			if resp.ID != "" {
				root.SetAttr("job", resp.ID)
			}
		})
	if err != nil {
		return nil, "", err
	}
	return resp, m.base, nil
}

// SubmitStatus is one program's outcome in SubmitAll.
type SubmitStatus struct {
	// Name identifies the program; ID is the job to poll (empty when
	// Err is set); Replica is the accepting replica's base URL; State
	// is the job's state at submission time.
	Name    string
	ID      string
	Replica string
	State   string
	Err     error
}

// SubmitAll submits a set of programs, each routed by its own content
// address, and reports per-program receipts. Individual failures do
// not stop the rest of the batch.
func (p *Pool) SubmitAll(ctx context.Context, programs []BatchProgram, o RequestOptions) []SubmitStatus {
	out := make([]SubmitStatus, len(programs))
	for i, bp := range programs {
		name := bp.Name
		if name == "" {
			name = fmt.Sprintf("program-%d", i)
		}
		out[i].Name = name
		resp, replica, err := p.Submit(ctx, name, bp.Source, o)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].ID = resp.ID
		out[i].Replica = replica
		out[i].State = resp.State
	}
	return out
}

// PollResult polls the replica that accepted a submission until the
// job reaches a terminal state or ctx expires. replica is the base URL
// returned by Submit; an unknown one is an error (polling a different
// replica would 404 — queues are per-replica state).
func (p *Pool) PollResult(ctx context.Context, replica, id string, interval time.Duration) (*JobResult, error) {
	base := strings.TrimRight(replica, "/")
	for _, m := range p.members {
		if m.base == base {
			return m.client.Poll(ctx, id, interval)
		}
	}
	return nil, fmt.Errorf("pdce: unknown pool replica %q", replica)
}
