package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"pdce"
	"pdce/internal/server"
	"pdce/internal/store"
)

// TestServingPathsAgree is the serving half of the cross-layer
// differential. A result is a pure function of (canonical program,
// options) (Theorem 3.7), so every path pdced can answer a request by
// must give the same bytes, and those bytes must hold the library's
// result. Over progen programs, structured and irreducible, under pde,
// pfe, telemetry and a one-round cap, it compares:
//   - POST /optimize on replica A, which publishes to a shared MemStore;
//   - POST /optimize/submit polled to done on replica B;
//   - POST /optimize/batch on replica C, the entry's OptimizeResponse
//     marshalled again;
//   - pdce.Pool.Optimize over two fresh replicas, the response
//     marshalled again;
//   - pdce.Pool.Submit and PollResult over two replicas with queues;
//   - POST /optimize on a fresh replica D on A's store after A drained,
//     which must answer hit and run no solve;
//   - Program.Optimize in the library, whose Format and String must be
//     the body's program and listing.
//
// The body's program must also pass Program.Check against its input
// (outputs preserved, no execution impaired); every other path is held
// to the same bytes, so the check covers them all.
func TestServingPathsAgree(t *testing.T) {
	shared := store.NewMemStore()
	a, tsA, _ := startServer(t, server.Config{Store: shared})
	b, tsB, cB := startServer(t, queueConfig(t))
	defer b.Drain(context.Background())
	_, _, cC := startServer(t, server.Config{})
	pool := newPool(t, server.Config{}, server.Config{})
	queued := newPool(t, queueConfig(t), queueConfig(t))

	variants := []struct {
		query string
		batch pdce.BatchOptimizeRequest
		opts  pdce.Options
	}{
		{"mode=pde", pdce.BatchOptimizeRequest{Mode: "pde"}, pdce.Options{Mode: pdce.Dead}},
		{"mode=pfe", pdce.BatchOptimizeRequest{Mode: "pfe"}, pdce.Options{Mode: pdce.Faint}},
		{"mode=pde&telemetry=1", pdce.BatchOptimizeRequest{Mode: "pde", Telemetry: true},
			pdce.Options{Mode: pdce.Dead, Telemetry: true}},
		{"mode=pfe&max_rounds=1", pdce.BatchOptimizeRequest{Mode: "pfe", MaxRounds: 1},
			pdce.Options{Mode: pdce.Faint, MaxRounds: 1}},
	}
	type sent struct {
		name, query, src string
		body             []byte
	}
	var cases []sent
	for seed := int64(0); seed < 8; seed++ {
		for _, irreducible := range []bool{false, true} {
			prog := pdce.Generate(pdce.GenParams{Seed: seed, Stmts: 20 + 8*int(seed), Irreducible: irreducible})
			src := prog.Format()
			for _, v := range variants {
				name := fmt.Sprintf("seed %d irreducible %v %s", seed, irreducible, v.query)
				status, body, state := rawOptimize(t, tsA.URL, v.query, src)
				if status != http.StatusOK || state != string(pdce.CacheMiss) {
					t.Fatalf("%s: /optimize status %d, cache %q: %s", name, status, state, body)
				}
				cases = append(cases, sent{name, v.query, src, body})

				var resp pdce.OptimizeResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				opt, _, err := prog.Optimize(v.opts)
				if err != nil {
					t.Fatalf("%s: library: %v", name, err)
				}
				if opt.Format() != resp.Program || opt.String() != resp.Listing {
					t.Fatalf("%s: the library's result differs from /optimize's:\n%s\nvs\n%s", name, opt.Format(), resp.Program)
				}
				served, err := pdce.ParseCFG(resp.Program)
				if err != nil {
					t.Fatalf("%s: /optimize's program does not parse: %v", name, err)
				}
				if err := prog.Check(served, 32); err != nil {
					t.Fatalf("%s: /optimize's program fails the semantics check against its input: %v", name, err)
				}

				if got := submitAndPoll(t, tsB.URL, cB, v.query, src); !bytes.Equal(got, body) {
					t.Fatalf("%s: the queue's body differs from /optimize's:\n%s\nvs\n%s", name, got, body)
				}

				breq := v.batch
				breq.Programs = []pdce.BatchProgram{{Name: "p", Source: src}}
				bresp, err := cC.OptimizeBatch(context.Background(), breq)
				if err != nil {
					t.Fatalf("%s: batch: %v", name, err)
				}
				entry := bresp.Results[0]
				if entry.Error != "" || entry.Cached {
					t.Fatalf("%s: batch entry error %q, cached %v", name, entry.Error, entry.Cached)
				}
				got, err := json.Marshal(entry.OptimizeResponse)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("%s: the batch entry differs from /optimize's:\n%s\nvs\n%s", name, got, body)
				}

				ro := pdce.RequestOptions{Mode: v.opts.Mode, MaxRounds: v.opts.MaxRounds, Telemetry: v.opts.Telemetry}
				presp, _, err := pool.Optimize(context.Background(), "", src, ro)
				if err != nil {
					t.Fatalf("%s: pool: %v", name, err)
				}
				if got, err = json.Marshal(presp); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("%s: the pool's answer differs from /optimize's:\n%s\nvs\n%s", name, got, body)
				}

				if got := poolSubmitAndPoll(t, queued, ro, src); !bytes.Equal(got, body) {
					t.Fatalf("%s: the pool's job result differs from /optimize's:\n%s\nvs\n%s", name, got, body)
				}
			}
		}
	}

	drainServer(t, a)
	d, tsD, _ := startServer(t, server.Config{Store: shared})
	for _, c := range cases {
		status, body, state := rawOptimize(t, tsD.URL, c.query, c.src)
		if status != http.StatusOK || state != string(pdce.CacheHit) {
			t.Fatalf("%s: replica D status %d, cache %q, want a hit from L2", c.name, status, state)
		}
		if !bytes.Equal(body, c.body) {
			t.Fatalf("%s: the L2 hit differs from /optimize's:\n%s\nvs\n%s", c.name, body, c.body)
		}
	}
	if got := d.Stats().Optimizes.Load(); got != 0 {
		t.Fatalf("replica D ran %d solves, want 0", got)
	}
}

// newPool starts one replica per config and returns a pool over them.
// A replica with a queue is drained when the test ends.
func newPool(t *testing.T, cfgs ...server.Config) *pdce.Pool {
	t.Helper()
	var urls []string
	for _, cfg := range cfgs {
		s, ts, _ := startServer(t, cfg)
		if cfg.QueueDir != "" {
			t.Cleanup(func() { s.Drain(context.Background()) })
		}
		urls = append(urls, ts.URL)
	}
	p, err := pdce.NewPool(urls, pdce.PoolOptions{ProbeInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// poolSubmitAndPoll submits src through p under o, polls the job to
// done on the replica that took it and returns its result body.
func poolSubmitAndPoll(t *testing.T, p *pdce.Pool, o pdce.RequestOptions, src string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sub, replica, err := p.Submit(ctx, "", src, o)
	if err != nil {
		t.Fatalf("pool submit: %v", err)
	}
	res, err := p.PollResult(ctx, replica, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobDone {
		t.Fatalf("job state %q, error %q, want done", res.State, res.Error)
	}
	return res.Result
}

// submitAndPoll posts src to /optimize/submit under query, polls the
// job to done and returns its result body.
func submitAndPoll(t *testing.T, base string, c *pdce.Client, query, src string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/optimize/submit?"+query, "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var sub pdce.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Poll(ctx, sub.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != pdce.JobDone {
		t.Fatalf("job state %q, error %q, want done", res.State, res.Error)
	}
	return res.Result
}
