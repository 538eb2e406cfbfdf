package faultinject

import (
	"sync"
	"testing"
)

func TestFireWithoutHookIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("no hook installed, Enabled() = true")
	}
	Fire(SolverVisit, nil) // must not panic
}

func TestSetFireRestore(t *testing.T) {
	var got []Point
	restore := Set(func(p Point, payload any) {
		got = append(got, p)
		if payload != "payload" {
			t.Errorf("payload = %v, want %q", payload, "payload")
		}
	})
	if !Enabled() {
		t.Fatal("hook installed, Enabled() = false")
	}
	Fire(ServerRequest, "payload")
	Fire(SinkPhase, "payload")
	restore()
	if Enabled() {
		t.Fatal("restore left a hook installed")
	}
	Fire(ServerRequest, "ignored")
	if len(got) != 2 || got[0] != ServerRequest || got[1] != SinkPhase {
		t.Fatalf("hook saw %v, want [ServerRequest SinkPhase]", got)
	}
}

func TestSetRestoresPreviousHook(t *testing.T) {
	hits := 0
	outer := Set(func(Point, any) { hits += 100 })
	inner := Set(func(Point, any) { hits++ })
	Fire(SolverVisit, nil)
	inner()
	Fire(SolverVisit, nil)
	outer()
	if hits != 101 {
		t.Fatalf("hits = %d, want 101 (inner once, outer once)", hits)
	}
}

// TestConcurrentFire runs Fire from many goroutines while the hook is
// installed — the seam itself must be race-free (a batch fires it from
// every pool worker).
func TestConcurrentFire(t *testing.T) {
	var mu sync.Mutex
	count := 0
	defer Set(func(Point, any) {
		mu.Lock()
		count++
		mu.Unlock()
	})()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				Fire(ServerRequest, "x")
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Fatalf("count = %d, want 800", count)
	}
}
