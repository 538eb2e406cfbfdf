package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pdce"
	"pdce/internal/cfg"
	"pdce/internal/faultinject"
	"pdce/internal/server"
)

// batchAsync sends req in the background; the reply arrives on the
// returned channel, nil when the call failed.
func batchAsync(t *testing.T, c *pdce.Client, req pdce.BatchOptimizeRequest) <-chan *pdce.BatchOptimizeResponse {
	t.Helper()
	ctx := contextOK(t)
	out := make(chan *pdce.BatchOptimizeResponse, 1)
	go func() {
		resp, err := c.OptimizeBatch(ctx, req)
		if err != nil {
			t.Errorf("batch: %v", err)
		}
		out <- resp
	}()
	return out
}

// TestBatchShedsAtAdmission: batch entries take the server-wide
// admission slots /optimize takes. With the one slot held by a stalled
// /optimize and a one-deep queue, one fresh entry waits in the queue
// and the others are shed in place, each counted in shed_queue_full;
// once the slot frees, the waiting entry solves and every slot and
// queue position is given back.
func TestBatchShedsAtAdmission(t *testing.T) {
	const n = 4
	s, ts, client := startServer(t, server.Config{MaxInFlight: 1, MaxQueue: 1, BatchWorkers: n})
	entered, release := stallRequests(t)
	free := sync.OnceFunc(func() { close(release) })
	defer free()

	holder := make(chan int, 1)
	go func() {
		status, _, _ := rawOptimize(t, ts.URL, "name=holder", "out(1)\n")
		holder <- status
	}()
	<-entered // the /optimize holds the only slot

	var req pdce.BatchOptimizeRequest
	for i := 0; i < n; i++ {
		req.Programs = append(req.Programs, pdce.BatchProgram{Name: fmt.Sprintf("fresh%d", i), Source: fmt.Sprintf("x := a + %d\nout(x)\n", i)})
	}
	reply := batchAsync(t, client, req)
	waitFor(t, "one entry queued", func() bool {
		_, queued := s.Admission().Depth()
		return queued == 1
	})
	time.Sleep(20 * time.Millisecond) // let the other entries meet the full queue
	free()
	if status := <-holder; status != http.StatusOK {
		t.Errorf("the slot holder finished %d", status)
	}
	resp := <-reply
	if resp == nil {
		t.FailNow()
	}

	shed := 0
	for _, e := range resp.Results {
		switch {
		case e.Shed:
			shed++
			if e.ErrorKind != "queue-full" || e.Program != "" {
				t.Errorf("shed entry %s: error_kind %q, program %q", e.Name, e.ErrorKind, e.Program)
			}
		case e.Error != "" || e.Program == "":
			t.Errorf("admitted entry %s: error %q, program %q", e.Name, e.Error, e.Program)
		}
	}
	if shed != n-1 {
		t.Errorf("%d shed entries, want %d", shed, n-1)
	}
	if got := s.Stats().ShedQueueFull.Load(); got != n-1 {
		t.Errorf("shed_queue_full = %d, want %d", got, n-1)
	}
	if m := resp.Metrics; m == nil || m.Jobs != n || m.Failed != n-1 {
		t.Errorf("batch metrics = %+v, want %d jobs, %d failed", m, n, n-1)
	}
	if active, queued := s.Admission().Depth(); active != 0 || queued != 0 {
		t.Errorf("admission depth after the batch = (%d, %d), want (0, 0)", active, queued)
	}
}

// TestBatchEntryJoinsFlight: a batch entry for a program /optimize is
// solving waits for that solve and is answered by it, as a second
// /optimize would be: one solve, one dedup, and the entry's response is
// the /optimize body.
func TestBatchEntryJoinsFlight(t *testing.T) {
	s, ts, client := startServer(t, server.Config{MaxInFlight: 2})
	entered, release := stallRequests(t)
	free := sync.OnceFunc(func() { close(release) })
	defer free()

	leader := make(chan []byte, 1)
	go func() {
		_, body, _ := rawOptimize(t, ts.URL, "name=same", demoSource)
		leader <- body
	}()
	<-entered // the leader holds the key's flight and is stalled

	reply := batchAsync(t, client, pdce.BatchOptimizeRequest{Programs: []pdce.BatchProgram{{Name: "same", Source: demoSource}}})
	waitFor(t, "the batch entry's L1 miss", func() bool { return s.Cache().Metrics().Misses == 2 })
	time.Sleep(20 * time.Millisecond) // let the entry reach the flight wait
	free()
	body := <-leader
	resp := <-reply
	if resp == nil {
		t.FailNow()
	}

	if got := s.Stats().Optimizes.Load(); got != 1 {
		t.Errorf("optimizes = %d, want 1", got)
	}
	if got := s.Stats().Dedups.Load(); got != 1 {
		t.Errorf("dedups = %d, want 1", got)
	}
	e := resp.Results[0]
	if !e.Cached {
		t.Errorf("an entry served by a dedup has cached %v, want true", e.Cached)
	}
	got, err := json.Marshal(e.OptimizeResponse)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("the entry differs from the /optimize body:\n%s\nvs\n%s", got, body)
	}
	if resp.Metrics != nil {
		t.Errorf("an entry that never reached admission is in the metrics: %+v", resp.Metrics)
	}
}

// TestBatchDeadlinePerEntry: deadline_ms bounds each entry, not the
// whole batch. With one batch worker and a slowed solver, six entries
// in a row take several deadlines between them, yet each one gets its
// own and comes back with a program.
func TestBatchDeadlinePerEntry(t *testing.T) {
	_, _, client := startServer(t, server.Config{BatchWorkers: 1})
	restore := faultinject.Set(func(p faultinject.Point, _ any) {
		if p == faultinject.SolverVisit {
			time.Sleep(1500 * time.Microsecond)
		}
	})
	defer restore()

	req := pdce.BatchOptimizeRequest{DeadlineMS: 60}
	for i := 0; i < 6; i++ {
		req.Programs = append(req.Programs, pdce.BatchProgram{
			Name: fmt.Sprintf("p%d", i), Source: fmt.Sprintf("y := a + %d\nif * {\n    y := c\n}\nout(x + y)\n", i),
		})
	}
	resp, err := client.OptimizeBatch(contextOK(t), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range resp.Results {
		if e.Program == "" {
			t.Errorf("entry %s has no program: error %q, error_kind %q", e.Name, e.Error, e.ErrorKind)
		}
	}
}

// TestBatchPanicEntry: an entry whose solve panics answers as
// /optimize does (500, no program): error_kind panic, no program,
// counted in panics and not in degraded. The other entry is unharmed.
func TestBatchPanicEntry(t *testing.T) {
	s, _, client := startServer(t, server.Config{ReproDir: t.TempDir()})
	restore := faultinject.Set(func(p faultinject.Point, payload any) {
		if g, ok := payload.(*cfg.Graph); ok && p == faultinject.EliminatePhase && g.Name == "boom" {
			panic("injected batch fault")
		}
	})
	defer restore()

	resp, err := client.OptimizeBatch(contextOK(t), pdce.BatchOptimizeRequest{Programs: []pdce.BatchProgram{
		{Name: "ok", Source: demoSource}, {Name: "boom", Source: "y := 1\nout(2)\n"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ok := resp.Results[0]; ok.Error != "" || ok.Program == "" {
		t.Errorf("healthy entry: error %q, program %q", ok.Error, ok.Program)
	}
	boom := resp.Results[1]
	if boom.ErrorKind != "panic" || boom.Program != "" || boom.Degraded {
		t.Errorf("panicking entry: error_kind %q, program %q, degraded %v; want panic, none, false", boom.ErrorKind, boom.Program, boom.Degraded)
	}
	snap := s.Stats().Snapshot()
	if snap.Panics != 1 || snap.Degraded != 0 {
		t.Errorf("panics %d, degraded %d; want 1, 0", snap.Panics, snap.Degraded)
	}
	if m := resp.Metrics; m == nil || m.Panics != 1 {
		t.Errorf("batch metrics = %+v, want 1 panic", m)
	}
}
