package pdce_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdce"
	"pdce/internal/server"
)

const poolTestSource = "y := a + b\nif * {\n    y := c\n}\nout(x + y)\n"

func newTestReplica(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestAffinityKeyIsServedKey: the key a Pool routes a request by is the
// key a pdced replica serves its result under, so a repeated request
// lands on the replica whose cache holds its answer. Over progen
// programs, structured and irreducible, and a WHILE program, under each
// option a request can carry, with and without a name, the routing key
// must equal the reply's key, and no key may come from the raw-bytes
// fallback.
func TestAffinityKeyIsServedKey(t *testing.T) {
	_, ts := newTestReplica(t)
	p, err := pdce.NewPool([]string{ts.URL}, pdce.PoolOptions{ProbeInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := pdce.NewClient(ts.URL)

	type input struct{ src, lang string }
	inputs := []input{{poolTestSource, "while"}}
	for seed := int64(0); seed < 2; seed++ {
		for _, irreducible := range []bool{false, true} {
			src := pdce.Generate(pdce.GenParams{Seed: seed, Stmts: 24, Irreducible: irreducible}).Format()
			inputs = append(inputs, input{src, "cfg"})
		}
	}
	variants := []struct {
		name      string
		o         pdce.RequestOptions
		forceLang bool
	}{
		{"default", pdce.RequestOptions{}, false},
		{"pfe", pdce.RequestOptions{Mode: pdce.Faint}, false},
		{"max_rounds=1", pdce.RequestOptions{MaxRounds: 1}, false},
		{"telemetry", pdce.RequestOptions{Telemetry: true}, false},
		{"trace", pdce.RequestOptions{Trace: true}, false},
		{"explain=y", pdce.RequestOptions{Explain: "y"}, false},
		{"lang", pdce.RequestOptions{}, true},
		{"deadline", pdce.RequestOptions{Deadline: time.Minute}, false},
	}
	ctx := context.Background()
	for i, in := range inputs {
		for _, v := range variants {
			o := v.o
			if v.forceLang {
				o.Lang = in.lang
			}
			for _, name := range []string{"", "named"} {
				want := p.AffinityKey(name, in.src, o)
				resp, _, err := c.Optimize(ctx, name, in.src, o)
				if err != nil {
					t.Fatalf("input %d %s name %q: %v", i, v.name, name, err)
				}
				if resp.Key != want {
					t.Errorf("input %d %s name %q: the pool routes by %s, the replica serves %s", i, v.name, name, want, resp.Key)
				}
			}
		}
	}
	if n := p.Stats().Snapshot().ParseFallbacks; n != 0 {
		t.Errorf("%d routing keys came from the raw-bytes fallback", n)
	}
}

// The optimizer's determinism is what makes replica choice an
// affinity-only decision: every replica must answer a given request
// with the same bytes, and the pool must return that same answer no
// matter which members are alive.
func TestPoolByteIdenticalAcrossReplicas(t *testing.T) {
	var servers []*server.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s, ts := newTestReplica(t)
		servers = append(servers, s)
		urls = append(urls, ts.URL)
	}

	// Direct per-replica answers must already be byte-identical.
	var want []byte
	for i, u := range urls {
		resp, _, err := pdce.NewClient(u).Optimize(context.Background(), "p", poolTestSource, pdce.RequestOptions{})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		body, _ := json.Marshal(resp)
		if want == nil {
			want = body
		} else if string(body) != string(want) {
			t.Fatalf("replica %d answered differently:\n%s\nvs\n%s", i, body, want)
		}
	}

	p, err := pdce.NewPool(urls, pdce.PoolOptions{ProbeInterval: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	first, _, err := p.Optimize(context.Background(), "p", poolTestSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Drain two replicas: whichever member was the key's home, the
	// request is now forced onto the single survivor.
	servers[0].BeginDrain()
	servers[1].BeginDrain()
	second, _, err := p.Optimize(context.Background(), "p", poolTestSource, pdce.RequestOptions{})
	if err != nil {
		t.Fatalf("optimize with two replicas draining: %v", err)
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(second)
	if string(b1) != string(want) || string(b2) != string(want) {
		t.Fatalf("pool answers diverged from the replica answer:\nfirst  %s\nsecond %s\nwant   %s", b1, b2, want)
	}
}

// An ejected replica must be probed back in: /healthz failures eject
// it, a later "ok" readmits it, and routing resumes using it.
func TestPoolEjectedReplicaReadmitted(t *testing.T) {
	_, healthyTS := newTestReplica(t)
	flaky, flakyBackend := newTestReplica(t)
	_ = flaky
	var down atomic.Bool
	flakyTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintln(w, "<html>replica rebooting</html>")
			return
		}
		flakyBackend.Config.Handler.ServeHTTP(w, r)
	}))
	defer flakyTS.Close()

	p, err := pdce.NewPool([]string{flakyTS.URL, healthyTS.URL}, pdce.PoolOptions{ProbeInterval: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	down.Store(true)
	p.Probe()
	if m := p.Members(); m[0].Healthy || !m[1].Healthy {
		t.Fatalf("after failing probe: members = %+v, want flaky ejected", m)
	}
	// Requests keep succeeding while one member is out.
	if _, _, err := p.Optimize(context.Background(), "p", poolTestSource, pdce.RequestOptions{}); err != nil {
		t.Fatalf("optimize with ejected member: %v", err)
	}

	down.Store(false)
	p.Probe()
	if m := p.Members(); !m[0].Healthy {
		t.Fatalf("after passing probe: members = %+v, want flaky readmitted", m)
	}
	snap := p.Stats().Snapshot()
	rc := snap.Replicas[flakyTS.URL]
	if rc.Ejections < 1 || rc.Readmissions < 1 {
		t.Fatalf("flaky replica counters = %+v, want >=1 ejection and readmission", rc)
	}
}

// dropListener hands its connections to the HTTP server until killed
// and from then on closes each one as it accepts it, so a killed
// replica keeps its port and nothing else can answer on it.
type dropListener struct {
	net.Listener
	killed atomic.Bool
}

func (l *dropListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || !l.killed.Load() {
			return c, err
		}
		c.Close()
	}
}

// Killing a replica outright must stay invisible to callers: every
// request completes via failover, and the killed replica is ejected.
// Requests are sent until one has the killed replica as its home,
// whatever ring the replicas' ports give, and the hedge waits out the
// failed first try, so that try always counts against the replica.
func TestPoolSurvivesReplicaKill(t *testing.T) {
	_, aliveTS := newTestReplica(t)
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	deadTS := httptest.NewUnstartedServer(s.Handler())
	drop := &dropListener{Listener: deadTS.Listener}
	deadTS.Listener = drop
	deadTS.Start()
	t.Cleanup(deadTS.Close)
	p, err := pdce.NewPool([]string{deadTS.URL, aliveTS.URL}, pdce.PoolOptions{ProbeInterval: -1, Seed: 3, HedgeDelay: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	drop.killed.Store(true)

	homed := false
	for i := 0; i < 64 && !homed; i++ {
		name, src := fmt.Sprintf("p%d", i), fmt.Sprintf("x := a + b%d\nout(x)\n", i)
		homed = p.Home(p.AffinityKey(name, src, pdce.RequestOptions{})) == deadTS.URL
		if _, _, err := p.Optimize(context.Background(), name, src, pdce.RequestOptions{}); err != nil {
			t.Fatalf("request %d saw the kill: %v", i, err)
		}
	}
	if !homed {
		t.Fatal("no request of 64 had the killed replica as its home")
	}
	if m := p.Members(); m[0].Healthy {
		t.Fatal("killed replica still marked healthy")
	}
}

// drivePool sends passes over sources through clients closed-loop
// workers and returns the caller-visible errors. Jobs are handed out
// under a lock, so halfway, when non-nil, runs once after half of
// them were handed out and before any later one is: every request in
// the second half is sent after it returns.
func drivePool(p *pdce.Pool, sources []string, clients, passes int, halfway func()) []error {
	total := len(sources) * passes
	var mu sync.Mutex
	next := 0
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == total {
			return 0, false
		}
		if next == total/2 && halfway != nil {
			halfway()
		}
		next++
		return (next - 1) % len(sources), true
	}
	var errs []error
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				_, _, err := p.Optimize(context.Background(), fmt.Sprintf("drill-%02d", i), sources[i], pdce.RequestOptions{})
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// TestPoolFleetDrill is the cluster drill: four replicas behind a
// Pool and 16 closed-loop clients. Determinism (Theorem 3.7) makes a
// result content-addressable and replicas interchangeable, so after a
// cold pass the warm passes never re-solve, affinity keeps every
// program on its home replica, and a replica that begins draining
// mid-run stays invisible to callers.
func TestPoolFleetDrill(t *testing.T) {
	const (
		replicas = 4
		clients  = 16
		programs = 48
		warm     = 3
	)
	var servers []*server.Server
	var urls []string
	for i := 0; i < replicas; i++ {
		// Admission sized for every client at once: a 429 would fail
		// the request over to a replica that is not its home.
		s, err := server.New(server.Config{MaxInFlight: clients, MaxQueue: 4 * clients})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, s)
		urls = append(urls, ts.URL)
	}
	p, err := pdce.NewPool(urls, pdce.PoolOptions{ProbeInterval: -1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sources := make([]string, programs)
	for i := range sources {
		sources[i] = pdce.Generate(pdce.GenParams{Seed: int64(i), Stmts: 96}).Format()
	}

	if errs := drivePool(p, sources, clients, 1, nil); len(errs) > 0 {
		t.Fatalf("cold pass: %d errors, first: %v", len(errs), errs[0])
	}
	if errs := drivePool(p, sources, clients, warm, nil); len(errs) > 0 {
		t.Fatalf("warm passes: %d errors, first: %v", len(errs), errs[0])
	}
	var solves int64
	for _, s := range servers {
		solves += s.Stats().Optimizes.Load()
	}
	if solves != programs {
		t.Fatalf("fleet solved %d times for %d programs: a warm request or a sibling replica re-solved", solves, programs)
	}
	if rate := p.Stats().Snapshot().AffinityHitRate; rate != 1 {
		t.Fatalf("affinity hit rate %.3f, want 1: a request left its home replica", rate)
	}

	// The fault run covers the list twice and replica 0 begins draining
	// halfway, so every program is requested again after the drain. In
	// a single pass the drained replica homes none of the second half's
	// programs on 31 of 20,000 random rings, and then nothing reaches it.
	victim := servers[0]
	if errs := drivePool(p, sources, clients, 2, victim.BeginDrain); len(errs) > 0 {
		t.Fatalf("the drain leaked %d errors to callers, first: %v", len(errs), errs[0])
	}
	if p.Members()[0].Healthy {
		t.Fatal("drained replica is still marked healthy")
	}
	snap := p.Stats().Snapshot()
	if rc := snap.Replicas[urls[0]]; rc.Ejections < 1 {
		t.Fatalf("drained replica counters %+v, want at least one ejection", rc)
	}
	t.Logf("fault run: %d failovers, %d ejections", snap.Failovers, snap.Replicas[urls[0]].Ejections)
}

func newQueuedReplica(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{QueueDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// Async submission through the pool: SubmitAll fans a batch out by
// affinity, each receipt names the replica that durably owns the job,
// and PollResult against that replica completes with the same bytes a
// synchronous call yields. Queues are per-replica state, so polling a
// replica that never accepted the job must miss.
func TestPoolSubmitPollAcrossReplicas(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newQueuedReplica(t)
		urls = append(urls, ts.URL)
	}
	p, err := pdce.NewPool(urls, pdce.PoolOptions{ProbeInterval: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var batch []pdce.BatchProgram
	for i := 0; i < 8; i++ {
		batch = append(batch, pdce.BatchProgram{
			Name:   fmt.Sprintf("async-%d", i),
			Source: fmt.Sprintf("x := a + b%d\nif * {\n    x := c\n}\nout(x)\n", i),
		})
	}
	receipts := p.SubmitAll(ctx, batch, pdce.RequestOptions{})
	if len(receipts) != len(batch) {
		t.Fatalf("SubmitAll returned %d receipts for %d programs", len(receipts), len(batch))
	}
	replicas := make(map[string]bool)
	for i, rec := range receipts {
		if rec.Err != nil {
			t.Fatalf("submit %s: %v", rec.Name, rec.Err)
		}
		if rec.ID == "" || rec.Replica == "" {
			t.Fatalf("receipt %d incomplete: %+v", i, rec)
		}
		replicas[rec.Replica] = true
	}
	if len(replicas) < 2 {
		t.Fatalf("all %d submissions landed on one replica — affinity routing is not spreading", len(batch))
	}

	for i, rec := range receipts {
		res, err := p.PollResult(ctx, rec.Replica, rec.ID, time.Millisecond)
		if err != nil {
			t.Fatalf("poll %s on %s: %v", rec.Name, rec.Replica, err)
		}
		if res.State != pdce.JobDone {
			t.Fatalf("job %s: state %q error %q", rec.Name, res.State, res.Error)
		}
		// The async bytes must match a synchronous answer for the same
		// program (determinism is the whole exactly-once story).
		sync, _, err := p.Optimize(ctx, batch[i].Name, batch[i].Source, pdce.RequestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var async pdce.OptimizeResponse
		if err := json.Unmarshal(res.Result, &async); err != nil {
			t.Fatalf("job %s result: %v", rec.Name, err)
		}
		ab, _ := json.Marshal(async)
		sb, _ := json.Marshal(sync)
		if string(ab) != string(sb) {
			t.Fatalf("job %s: async result diverged from sync\nasync: %s\nsync:  %s", rec.Name, ab, sb)
		}
	}

	// Duplicate submission: same program resubmitted must collapse onto
	// the same replica and job ID.
	again, replica, err := p.Submit(ctx, batch[0].Name, batch[0].Source, pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != receipts[0].ID || replica != receipts[0].Replica {
		t.Fatalf("resubmission moved: id %s@%s, want %s@%s",
			again.ID, replica, receipts[0].ID, receipts[0].Replica)
	}

	// Polling a replica that never saw the job must not fabricate one.
	var other string
	for _, u := range urls {
		if u != receipts[0].Replica {
			other = u
			break
		}
	}
	if _, err := pdce.NewClient(other).Result(ctx, receipts[0].ID, false); err == nil {
		t.Fatal("foreign replica answered for a job it never accepted")
	}
	if _, err := p.PollResult(ctx, "http://nobody:1", receipts[0].ID, time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "unknown pool replica") {
		t.Fatalf("PollResult against a non-member: err %v, want unknown-replica", err)
	}
}
