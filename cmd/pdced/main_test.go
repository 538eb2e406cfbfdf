package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pdce"
	"pdce/internal/faultinject"
	"pdce/internal/server"
)

// TestServeSmoke is the end-to-end daemon smoke test behind `make
// smoke-server`: start a real pdced on an ephemeral port, optimize a
// corpus file through the client, prove the second request is a cache
// hit, then shut down via a synthesized SIGTERM and assert a clean
// drain.
func TestServeSmoke(t *testing.T) {
	src, err := os.ReadFile("../../testdata/corpus/stats.while")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(server.Config{SpillDir: t.TempDir()}, ln, nil, sig)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := pdce.NewClient("http://" + ln.Addr().String())
	waitHealthy(t, ctx, client)

	first, state, err := client.Optimize(ctx, "stats", string(src), pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if state != pdce.CacheMiss || first.Program == "" {
		t.Fatalf("first optimize: state %q, program %d bytes", state, len(first.Program))
	}
	second, state, err := client.Optimize(ctx, "stats", string(src), pdce.RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if state != pdce.CacheHit {
		t.Fatalf("second optimize: state %q, want hit", state)
	}
	if second.Program != first.Program || second.Key != first.Key {
		t.Error("cached response differs from the computed one")
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Server.Optimizes != 1 || m.Server.CacheHits != 1 {
		t.Errorf("metrics after two requests: optimizes=%d hits=%d, want 1/1",
			m.Server.Optimizes, m.Server.CacheHits)
	}

	// SIGTERM: the daemon drains and serve returns nil.
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	// The port is actually released.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("rebinding the daemon port after shutdown: %v", err)
	}
	ln2.Close()
}

// TestServeDrainRestartQueue is the restart drill end to end: a real
// pdced with a durable queue takes async submissions plus an in-flight
// batch, gets SIGTERM'd mid-work, restarts on the same queue
// directory, and must complete every job — byte-identical to a
// fault-free reference server. The in-flight batch must finish inside
// the first daemon's drain; the queued async jobs must survive into
// the second.
func TestServeDrainRestartQueue(t *testing.T) {
	queueDir := t.TempDir()
	cfg := server.Config{QueueDir: queueDir, QueueWorkers: 1}
	programs := map[string]string{
		"drill-a": "x := 1\ny := x + 2\nif * {\n    y := 3\n}\nout(x + y)\n",
		"drill-b": "a := 4\nb := a + 5\nif * {\n    b := 6\n}\nout(a + b)\n",
		"drill-c": "p := 7\nq := p + 8\nif * {\n    q := 9\n}\nout(p + q)\n",
	}

	// Slow the solver so the async jobs are still working (or queued —
	// one worker) when the SIGTERM lands.
	var stall atomic.Int64
	stall.Store(int64(2 * time.Millisecond))
	defer faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			if d := stall.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
	})()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(cfg, ln, nil, sig) }()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := pdce.NewClient("http://" + ln.Addr().String())
	waitHealthy(t, ctx, client)

	ids := make(map[string]string)
	for name, src := range programs {
		sub, err := client.Submit(ctx, name, src, pdce.RequestOptions{})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		ids[name] = sub.ID
	}

	// An in-flight batch riding through the drain: launched before the
	// signal, it must be allowed to finish and answer 200.
	batchDone := make(chan error, 1)
	go func() {
		breq, _ := json.Marshal(pdce.BatchOptimizeRequest{Programs: []pdce.BatchProgram{
			{Name: "batch-a", Source: "m := 1\nout(m)\n"},
			{Name: "batch-b", Source: "n := 2\nn := 3\nout(n)\n"},
		}})
		resp, err := http.Post("http://"+ln.Addr().String()+"/optimize/batch",
			"application/json", bytes.NewReader(breq))
		if err != nil {
			batchDone <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			batchDone <- fmt.Errorf("batch: %d %s", resp.StatusCode, body)
			return
		}
		var bresp pdce.BatchOptimizeResponse
		if err := json.Unmarshal(body, &bresp); err != nil {
			batchDone <- err
			return
		}
		for _, e := range bresp.Results {
			if e.Error != "" || e.Program == "" {
				batchDone <- fmt.Errorf("batch entry %s: error %q", e.Name, e.Error)
				return
			}
		}
		batchDone <- nil
	}()
	time.Sleep(20 * time.Millisecond) // let the batch be admitted before the drain begins

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if err := <-batchDone; err != nil {
		t.Fatalf("in-flight batch across drain: %v", err)
	}

	// Restart on the same queue directory, full speed.
	stall.Store(0)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig2 := make(chan os.Signal, 1)
	done2 := make(chan error, 1)
	go func() { done2 <- serve(cfg, ln2, nil, sig2) }()
	client2 := pdce.NewClient("http://" + ln2.Addr().String())
	waitHealthy(t, ctx, client2)

	// Fault-free reference for byte-identity.
	oracleSrv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := httptest.NewServer(oracleSrv.Handler())
	defer oracle.Close()

	for name, src := range programs {
		res, err := client2.Poll(ctx, ids[name], time.Millisecond)
		if err != nil {
			t.Fatalf("job %s after restart: %v", name, err)
		}
		if res.State != pdce.JobDone {
			t.Fatalf("job %s after restart: state %q error %q", name, res.State, res.Error)
		}
		oresp, err := http.Post(oracle.URL+"/optimize?name="+name, "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := io.ReadAll(oresp.Body)
		oresp.Body.Close()
		if oresp.StatusCode != http.StatusOK {
			t.Fatalf("oracle %s: %d %s", name, oresp.StatusCode, want)
		}
		if string(res.Result) != string(want) {
			t.Fatalf("job %s: restart result diverged from reference\ngot:  %s\nwant: %s",
				name, res.Result, want)
		}
	}

	sig2 <- syscall.SIGTERM
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second daemon after SIGTERM: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("second daemon did not exit after SIGTERM")
	}
}

func waitHealthy(t *testing.T, ctx context.Context, client *pdce.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if status, err := client.Health(ctx); err == nil && status == "ok" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}
