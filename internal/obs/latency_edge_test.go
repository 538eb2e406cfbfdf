package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// Latency-ring percentile edges shared by ServerStats and ClientStats:
// the empty ring, the single sample, and the exact wraparound where
// the write index returns to zero.

func TestLatencyRingEmpty(t *testing.T) {
	var srv ServerStats
	snap := srv.Snapshot()
	if snap.P50NS != 0 || snap.P95NS != 0 || snap.MaxNS != 0 || snap.Samples != 0 {
		t.Errorf("empty server ring: %+v", snap)
	}
	var cli ClientStats
	if cli.P95() != 0 {
		t.Errorf("empty client ring p95 = %v", cli.P95())
	}
	csnap := cli.Snapshot()
	if csnap.P50NS != 0 || csnap.P95NS != 0 || csnap.Samples != 0 {
		t.Errorf("empty client ring: %+v", csnap)
	}
}

func TestLatencyRingOneSample(t *testing.T) {
	var srv ServerStats
	srv.RecordLatency(7 * time.Millisecond)
	snap := srv.Snapshot()
	// With n=1 every nearest-rank percentile is that sample.
	if time.Duration(snap.P50NS) != 7*time.Millisecond ||
		time.Duration(snap.P95NS) != 7*time.Millisecond ||
		time.Duration(snap.MaxNS) != 7*time.Millisecond || snap.Samples != 1 {
		t.Errorf("one-sample server ring: %+v", snap)
	}
	var cli ClientStats
	cli.RecordLatency(7 * time.Millisecond)
	if cli.P95() != 7*time.Millisecond {
		t.Errorf("one-sample client p95 = %v", cli.P95())
	}
}

func TestLatencyRingExactWraparound(t *testing.T) {
	var s ServerStats
	// Fill the ring exactly: the next sample must land at index 0,
	// displacing the oldest — an off-by-one here would either drop the
	// new sample or grow the ring past its window.
	for i := 0; i < latencyWindow; i++ {
		s.RecordLatency(time.Microsecond)
	}
	s.RecordLatency(time.Second) // the wraparound write
	snap := s.Snapshot()
	if snap.Samples != latencyWindow+1 {
		t.Errorf("lifetime samples = %d, want %d", snap.Samples, latencyWindow+1)
	}
	if time.Duration(snap.MaxNS) != time.Second {
		t.Errorf("max after wraparound = %v, want 1s (new sample lost)", time.Duration(snap.MaxNS))
	}
	// The window still holds exactly latencyWindow samples: 1023 fast
	// ones and the 1s outlier, so p50 is still the fast value.
	if time.Duration(snap.P50NS) != time.Microsecond {
		t.Errorf("p50 after wraparound = %v", time.Duration(snap.P50NS))
	}
}

// snapshotRace drives one serving tier under the race detector:
// writers Add to the live counters while the test takes snapshots
// through the tier's own reader. Once the writers stop, frozen must
// return exactly their adds in the Count fields and zero in every other
// field, although each live struct starts with its non-Count fields set.
type snapshotRace struct {
	add    func(w int)        // one step of writer w
	read   func(t *testing.T) // one snapshot, taken while the writers run
	frozen func() any         // the counters once the writers stopped
	want   any
}

const raceWriters, raceAdds = 4, 300

func (r snapshotRace) run(t *testing.T) {
	var wg sync.WaitGroup
	for w := range raceWriters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range raceAdds {
				r.add(w)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		r.read(t)
	}
	if got := r.frozen(); !reflect.DeepEqual(got, r.want) {
		t.Errorf("frozen %+v, want %+v", got, r.want)
	}
}

// TestServerStatsSnapshotRace snapshots concurrently WITH the writers
// (TestServerStatsConcurrent only snapshots after they finish), so
// -race proves readers never observe the ring mid-update.
func TestServerStatsSnapshotRace(t *testing.T) {
	const n = raceWriters * raceAdds
	srv := &ServerStats{ServerSnapshot: ServerSnapshot{CacheHitRate: 0.5, P50NS: 1, Samples: 1}}
	snapshotRace{
		add: func(int) { srv.Requests.Add(1); srv.Optimizes.Add(1); srv.RecordLatency(time.Microsecond) },
		read: func(t *testing.T) {
			if snap := srv.Snapshot(); snap.P95NS < snap.P50NS {
				t.Errorf("inconsistent snapshot: %+v", snap)
			}
		},
		frozen: func() any { return Freeze(&srv.ServerSnapshot) },
		want:   ServerSnapshot{Requests: n, Optimizes: n},
	}.run(t)
}

// TestClientStatsSnapshotRace covers ClientStats with its per-replica
// counters: two writers share each replica, created on first use.
func TestClientStatsSnapshotRace(t *testing.T) {
	const n = raceWriters * raceAdds
	cli := &ClientStats{ClientSnapshot: ClientSnapshot{
		Replicas: map[string]ReplicaCounters{"stale": {Attempts: 1}}, AffinityHitRate: 0.5, P95NS: 1}}
	bases := []string{"a", "b"}
	snapshotRace{
		add: func(w int) {
			cli.Hedges.Add(1)
			rc := cli.Replica(bases[w%2])
			rc.Attempts.Add(1)
			rc.Failures.Add(1)
			cli.RecordLatency(time.Microsecond)
		},
		read:   func(*testing.T) { cli.Snapshot(); cli.P95() },
		frozen: func() any { return []any{Freeze(&cli.ClientSnapshot), cli.Snapshot().Replicas} },
		want: []any{ClientSnapshot{Hedges: n}, map[string]ReplicaCounters{
			"a": {Attempts: n / 2, Failures: n / 2}, "b": {Attempts: n / 2, Failures: n / 2}}},
	}.run(t)
}

func TestStoreStatsSnapshotRace(t *testing.T) {
	const n = raceWriters * raceAdds
	st := &StoreStats{StoreSnapshot: StoreSnapshot{Blobs: 1, L2HitRate: 0.5, GetMaxNS: 1}}
	snapshotRace{
		add:    func(int) { st.L2Hits.Add(1); st.LeaseWins.Add(1); st.RecordGetLatency(time.Microsecond) },
		read:   func(*testing.T) { st.Snapshot() },
		frozen: func() any { return Freeze(&st.StoreSnapshot) },
		want:   StoreSnapshot{L2Hits: n, LeaseWins: n},
	}.run(t)
}

func TestQueueSnapshotRace(t *testing.T) {
	const n = raceWriters * raceAdds
	q := &QueueSnapshot{Depth: 1, OldestAgeMS: 1, WALBytes: 1}
	snapshotRace{
		add:    func(int) { q.Submits.Add(1); q.Acks.Add(1) },
		read:   func(*testing.T) { Freeze(q) },
		frozen: func() any { return Freeze(q) },
		want:   QueueSnapshot{Submits: n, Acks: n},
	}.run(t)
}
