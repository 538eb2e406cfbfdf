package obs

import (
	"sync"
	"testing"
	"time"
)

func TestServerStatsCountersAndHitRate(t *testing.T) {
	s := &ServerStats{}
	for i := 0; i < 3; i++ {
		s.Requests.Add(1)
		s.CacheHits.Add(1)
	}
	s.Requests.Add(1)
	s.CacheMisses.Add(1)
	s.Optimizes.Add(1)
	s.Panics.Add(1)
	s.Degraded.Add(1)
	snap := s.Snapshot()
	if snap.Requests != 4 || snap.CacheHits != 3 || snap.CacheMisses != 1 {
		t.Errorf("counters: %+v", snap)
	}
	if snap.CacheHitRate != 0.75 {
		t.Errorf("hit rate %v, want 0.75", snap.CacheHitRate)
	}
	if snap.Optimizes != 1 || snap.Panics != 1 || snap.Degraded != 1 {
		t.Errorf("outcome counters: %+v", snap)
	}
}

func TestServerStatsLatencyPercentiles(t *testing.T) {
	s := &ServerStats{}
	// 100 samples: 1ms..100ms. Nearest-rank p50 = 50th value, p95 =
	// 95th, max = 100th.
	for i := 1; i <= 100; i++ {
		s.RecordLatency(time.Duration(i) * time.Millisecond)
	}
	snap := s.Snapshot()
	if snap.Samples != 100 {
		t.Fatalf("samples = %d", snap.Samples)
	}
	if got := time.Duration(snap.P50NS); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := time.Duration(snap.P95NS); got != 95*time.Millisecond {
		t.Errorf("p95 = %v", got)
	}
	if got := time.Duration(snap.MaxNS); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
}

func TestServerStatsLatencyWindowWraps(t *testing.T) {
	s := &ServerStats{}
	// Overfill the ring: the oldest samples (all 1ns) are displaced by
	// the newest (all 1ms), so the percentiles reflect only the window.
	for i := 0; i < latencyWindow; i++ {
		s.RecordLatency(1)
	}
	for i := 0; i < latencyWindow; i++ {
		s.RecordLatency(time.Millisecond)
	}
	snap := s.Snapshot()
	if snap.Samples != 2*latencyWindow {
		t.Errorf("lifetime samples = %d, want %d", snap.Samples, 2*latencyWindow)
	}
	if time.Duration(snap.P50NS) != time.Millisecond {
		t.Errorf("p50 after wrap = %v, want 1ms", time.Duration(snap.P50NS))
	}
}

func TestServerStatsConcurrent(t *testing.T) {
	s := &ServerStats{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Requests.Add(1)
				s.CacheHits.Add(1)
				s.RecordLatency(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Requests != 4000 || snap.CacheHits != 4000 || snap.Samples != 4000 {
		t.Errorf("after concurrent load: %+v", snap)
	}
}
