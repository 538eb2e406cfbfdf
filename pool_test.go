package pdce

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePool builds a pool over synthetic URLs with the prober disabled —
// routing and membership are exercised without any network.
func fakePool(t *testing.T, n int) *Pool {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://replica-%d:8723", i)
	}
	p, err := NewPool(urls, PoolOptions{ProbeInterval: -1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// poolCalls are the two Pool calls that run the failover loop, each
// reduced to its error, so that one retry test covers both. timed says
// whether a success records a latency and an affinity sample.
var poolCalls = []struct {
	name  string
	timed bool
	call  func(ctx context.Context, p *Pool, source string) error
}{
	{"Optimize", true, func(ctx context.Context, p *Pool, source string) error {
		_, _, err := p.Optimize(ctx, "p", source, RequestOptions{})
		return err
	}},
	{"Submit", false, func(ctx context.Context, p *Pool, source string) error {
		_, _, err := p.Submit(ctx, "p", source, RequestOptions{})
		return err
	}},
}

// Ejecting one replica must move only the keys homed on it — every
// other key keeps both its home and its routed target (the consistent-
// hashing property affinity caching depends on) — and readmission must
// restore the original assignment exactly.
func TestAffinityStabilityUnderChurn(t *testing.T) {
	p := fakePool(t, 4)
	keys := testKeys(256)

	home := make(map[string]*member, len(keys))
	routed := make(map[string]*member, len(keys))
	homed := make(map[*member]int, len(p.members))
	for _, k := range keys {
		cands := p.candidates(k)
		home[k] = cands[0]
		homed[cands[0]]++
		m, wait := p.pick(cands, 0)
		if wait != 0 {
			t.Fatalf("key %s: unexpected cooldown wait %v on a healthy ring", k, wait)
		}
		routed[k] = m
		if m != cands[0] {
			t.Fatalf("key %s: healthy ring routed to %s, want home %s", k, m.base, cands[0].base)
		}
	}
	// Ring balance bounds the busiest replica, and so the fleet's warm
	// capacity: with no member home to more than half of the keys, four
	// replicas serve a warm working set at least twice as fast as one.
	for m, n := range homed {
		if 2*n > len(keys) {
			t.Fatalf("replica %s is home to %d of %d keys, more than half", m.base, n, len(keys))
		}
	}

	victim := p.members[1]
	p.eject(victim)
	moved := 0
	for _, k := range keys {
		cands := p.candidates(k)
		if cands[0] != home[k] {
			t.Fatalf("key %s: home changed under churn (%s -> %s)", k, home[k].base, cands[0].base)
		}
		m, _ := p.pick(cands, 0)
		if home[k] == victim {
			moved++
			if m != cands[1] {
				t.Fatalf("key %s: expected failover to second candidate %s, got %s", k, cands[1].base, m.base)
			}
			continue
		}
		if m != routed[k] {
			t.Fatalf("key %s: routed target moved (%s -> %s) though its home %s is healthy",
				k, routed[k].base, m.base, home[k].base)
		}
	}
	if moved == 0 {
		t.Fatal("no key was homed on the ejected replica — ring is badly unbalanced")
	}

	p.readmit(victim)
	for _, k := range keys {
		if m, _ := p.pick(p.candidates(k), 0); m != routed[k] {
			t.Fatalf("key %s: readmission did not restore routing (%s, want %s)", k, m.base, routed[k].base)
		}
	}
	snap := p.Stats().Snapshot()
	if rc := snap.Replicas[victim.base]; rc.Ejections != 1 || rc.Readmissions != 1 {
		t.Fatalf("victim counters = %+v, want 1 ejection and 1 readmission", rc)
	}
}

// A request pdced refuses — a body that does not parse, or a lang it
// does not know — routes by a hash of its raw bytes and counts a parse
// fallback.
func TestAffinityKeyFallback(t *testing.T) {
	p := fakePool(t, 2)
	p.affinityKey("p", "node {", RequestOptions{})
	p.affinityKey("p", "x := a\nout(x)\n", RequestOptions{Lang: "klingon"})
	if n := p.Stats().Snapshot().ParseFallbacks; n != 2 {
		t.Fatalf("parse fallbacks = %d, want 2", n)
	}
}

// A 429's Retry-After must become a real cooldown: the retry against
// the shedding replica may not be scheduled earlier than the server
// asked, even when the exponential backoff alone would be shorter.
func TestRetryHonorsRetryAfter(t *testing.T) {
	const retryAfterS = 3
	for _, pc := range poolCalls {
		t.Run(pc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Retry-After", fmt.Sprint(retryAfterS))
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(ServerError{Kind: "queue-full", Message: "server at capacity"})
			}))
			defer ts.Close()

			p, err := NewPool([]string{ts.URL}, PoolOptions{
				ProbeInterval: -1,
				Seed:          1,
				Retry:         RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			var slept []time.Duration
			p.sleep = func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil // observe the schedule without serving it in real time
			}

			err = pc.call(context.Background(), p, "x := a\nout(x)\n")
			var se *ServerError
			if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
				t.Fatalf("want wrapped 429 ServerError, got %v", err)
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("server saw %d calls, want 2 (one retry)", n)
			}
			if len(slept) != 1 {
				t.Fatalf("recorded sleeps = %v, want exactly one pre-retry delay", slept)
			}
			min := time.Duration(retryAfterS)*time.Second - 500*time.Millisecond // cooldown measured from first failure
			if slept[0] < min || slept[0] > time.Duration(retryAfterS)*time.Second {
				t.Fatalf("retry delay %v does not honor Retry-After %ds", slept[0], retryAfterS)
			}
		})
	}
}

// Deterministic failures must not be retried: a parse error (400)
// replays identically on every replica.
func TestNoRetryOnDeterministicFailure(t *testing.T) {
	for _, pc := range poolCalls {
		t.Run(pc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				json.NewEncoder(w).Encode(ServerError{Kind: "parse", Message: "no"})
			}))
			defer ts.Close()
			p, err := NewPool([]string{ts.URL, ts.URL + "/"}, PoolOptions{ProbeInterval: -1})
			if err == nil {
				t.Fatal("duplicate replica accepted")
			}
			p, err = NewPool([]string{ts.URL}, PoolOptions{ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			err = pc.call(context.Background(), p, "x := a\nout(x)\n")
			var se *ServerError
			if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
				t.Fatalf("want 400 ServerError, got %v", err)
			}
			if n := calls.Load(); n != 1 {
				t.Fatalf("server saw %d calls, want 1 (no retry on 400)", n)
			}
		})
	}
}

// cannedResponse is a decodable OptimizeResponse body for handler
// doubles that do not run the real optimizer.
func cannedResponse(tag string) []byte {
	body, _ := json.Marshal(OptimizeResponse{Name: "p", Key: "k", Mode: "pde", Program: tag, Listing: tag})
	return body
}

// A hedged request must win against a stalled primary, and the losing
// arm must be cancelled — no goroutine may outlive the call.
func TestHedgeWinsAndLoserIsCancelled(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body as the real server does: the server's
		// disconnect detection (which feeds r.Context().Done()) only
		// starts once the request body has been consumed.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done(): // cancelled loser: unwind immediately
			return
		case <-release:
		case <-time.After(5 * time.Second):
		}
		w.Header().Set("X-Pdced-Cache", "hit")
		w.Write(cannedResponse("slow"))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Pdced-Cache", "hit")
		w.Write(cannedResponse("fast"))
	}))
	defer fast.Close()
	defer close(release)

	hc := &http.Client{}
	p, err := NewPool([]string{slow.URL, fast.URL}, PoolOptions{
		HTTPClient:    hc,
		ProbeInterval: -1,
		Hedge:         true,
		HedgeDelay:    10 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Find a program whose home replica is the slow one, so the hedge
	// must fire to win.
	slowMember := p.members[0]
	source, found := "", false
	for i := 0; i < 64 && !found; i++ {
		source = fmt.Sprintf("x := a%d\nout(x)\n", i)
		found = p.candidates(p.affinityKey("p", source, RequestOptions{}))[0] == slowMember
	}
	if !found {
		t.Fatal("could not find a program homed on the slow replica")
	}

	before := runtime.NumGoroutine()
	resp, _, err := p.Optimize(context.Background(), "p", source, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Program != "fast" {
		t.Fatalf("response came from %q, want the hedged fast replica", resp.Program)
	}
	snap := p.Stats().Snapshot()
	if snap.Hedges != 1 || snap.HedgesWon != 1 {
		t.Fatalf("hedges=%d won=%d, want 1/1", snap.Hedges, snap.HedgesWon)
	}
	if snap.AffinityMisses != 1 {
		t.Fatalf("affinity misses = %d, want 1 (hedge answered off-home)", snap.AffinityMisses)
	}

	// The cancelled loser must unwind: drop keep-alive connections (they
	// are pooled transport state, not hedge goroutines), give the runtime
	// a moment, then require the count back at (or below) the baseline.
	hc.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked by hedging: %d before, %d after\n%s", before, got, buf[:n])
	}
}

// MaxTotalRequests is a hard cap on wire requests per logical call:
// with a budget below MaxAttempts, the failover loop must stop at the
// budget — the shedding replica sees exactly that many requests.
func TestRetryBudgetCapsTotalRequests(t *testing.T) {
	for _, pc := range poolCalls {
		t.Run(pc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(ServerError{Kind: "draining", Message: "leaving"})
			}))
			defer ts.Close()

			p, err := NewPool([]string{ts.URL}, PoolOptions{
				ProbeInterval: -1,
				Seed:          1,
				Retry: RetryPolicy{
					MaxAttempts:      5,
					BaseBackoff:      time.Millisecond,
					MaxBackoff:       2 * time.Millisecond,
					MaxTotalRequests: 2,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			p.sleep = func(ctx context.Context, d time.Duration) error { return nil }

			err = pc.call(context.Background(), p, "x := a\nout(x)\n")
			if err == nil {
				t.Fatal("call against a permanently draining replica succeeded")
			}
			if !strings.Contains(err.Error(), "request budget (2) exhausted") {
				t.Fatalf("error %v does not name the exhausted budget", err)
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("replica saw %d requests, want exactly the budget of 2", n)
			}
		})
	}
}

// Hedges draw from the same budget: when it cannot fund a second
// request, the hedge is skipped — the primary still answers, and no
// hedge is counted.
func TestRetryBudgetSkipsHedge(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(30 * time.Millisecond)
		w.Header().Set("X-Pdced-Cache", "hit")
		w.Write(cannedResponse("slow"))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Pdced-Cache", "hit")
		w.Write(cannedResponse("fast"))
	}))
	defer fast.Close()

	p, err := NewPool([]string{slow.URL, fast.URL}, PoolOptions{
		ProbeInterval: -1,
		Hedge:         true,
		HedgeDelay:    5 * time.Millisecond,
		Seed:          1,
		Retry:         RetryPolicy{MaxAttempts: 2, MaxTotalRequests: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A program homed on the slow replica, so only the budget stands
	// between the hedge timer and a second request.
	slowMember := p.members[0]
	source, found := "", false
	for i := 0; i < 64 && !found; i++ {
		source = fmt.Sprintf("x := a%d\nout(x)\n", i)
		found = p.candidates(p.affinityKey("p", source, RequestOptions{}))[0] == slowMember
	}
	if !found {
		t.Fatal("could not find a program homed on the slow replica")
	}
	resp, _, err := p.Optimize(context.Background(), "p", source, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Program != "slow" {
		t.Fatalf("response came from %q; the budget should have pinned the call to the primary", resp.Program)
	}
	if snap := p.Stats().Snapshot(); snap.Hedges != 0 {
		t.Fatalf("hedges = %d, want 0 (budget exhausted before the hedge)", snap.Hedges)
	}
}

// Probe scheduling must be jittered: delays spread within ±20% of the
// interval instead of landing on one synchronized tick.
func TestProbeDelayJitter(t *testing.T) {
	const interval = time.Hour // far beyond the test — the loop never fires
	p, err := NewPool([]string{"http://replica-0:8723"}, PoolOptions{ProbeInterval: interval, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	lo, hi := time.Duration(float64(interval)*0.8), time.Duration(float64(interval)*1.2)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 32; i++ {
		d := p.probeDelay()
		if d < lo || d >= hi {
			t.Fatalf("probe delay %v outside [%v, %v)", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatal("probe delays never vary — the jitter is not applied")
	}
}

// A transport failure ejects the replica and fails over; concurrent
// callers under -race must each still get an answer.
func TestTransportFailureFailsOver(t *testing.T) {
	for _, pc := range poolCalls {
		t.Run(pc.name, func(t *testing.T) {
			up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case strings.HasSuffix(r.URL.Path, "/healthz"):
					json.NewEncoder(w).Encode(HealthResponse{Status: "ok"})
				case strings.HasSuffix(r.URL.Path, "/submit"):
					w.WriteHeader(http.StatusAccepted)
					json.NewEncoder(w).Encode(SubmitResponse{ID: "k", State: JobQueued})
				default:
					w.Header().Set("X-Pdced-Cache", "miss")
					w.Write(cannedResponse("up"))
				}
			}))
			defer up.Close()
			down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
			down.Close() // immediately dead: every dial fails

			p, err := NewPool([]string{down.URL, up.URL}, PoolOptions{
				ProbeInterval: -1,
				Seed:          1,
				Retry:         RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			var wg sync.WaitGroup
			errs := make([]error, 8)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = pc.call(context.Background(), p, fmt.Sprintf("x := a%d\nout(x)\n", i))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("caller %d saw error despite failover: %v", i, err)
				}
			}
			if down := p.Members()[0]; down.Healthy {
				t.Fatal("dead replica still marked healthy after transport failures")
			}
			snap := p.Stats().Snapshot()
			if snap.Failovers == 0 {
				t.Fatal("no failovers recorded though the home replica of some key must be dead")
			}
			var want int64
			if pc.timed {
				want = int64(len(errs))
			}
			if affinity := int64(snap.AffinityHits + snap.AffinityMisses); snap.Samples != want || affinity != want {
				t.Fatalf("%d successes left %d latency and %d affinity samples, want %d of each", len(errs), snap.Samples, affinity, want)
			}
		})
	}
}
