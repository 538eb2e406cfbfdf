package obs

import (
	"math/rand"
	"slices"
	"testing"
)

// TestQuantileNearest pins the nearest-rank rule shared by every
// percentile in the repository: the sample at 1-based rank
// ceil(p/100 · n), and the zero value on an empty sample.
func TestQuantileNearest(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if q := NearestRank(s, 50); q != 2 {
		t.Errorf("median of 4 = %v, want 2 (nearest rank)", q)
	}
	if q := NearestRank(s, 95); q != 4 {
		t.Errorf("p95 of 4 = %v, want 4", q)
	}
	if q := NearestRank([]float64(nil), 50); q != 0 {
		t.Errorf("empty = %v", q)
	}
}

// TestWindowMatchesNaive feeds random streams through both window
// sizes in use, past several wraparounds, and compares the window's
// summary with a recomputation over the last size samples of the
// stream at every wrap and at points between wraps.
func TestWindowMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		w    *window
		size int
	}{
		{&window{}, latencyWindow},
		{&window{size: stageWindow}, stageWindow},
	} {
		var stream []int64
		for i := 1; i <= 5*c.size+c.size/2; i++ {
			// Latency-like values with a heavy tail, drawn from a range
			// wide enough that one stale or missing sample moves a
			// percentile.
			v := rng.Int63n(1_000_000)
			if rng.Intn(50) == 0 {
				v = rng.Int63n(1 << 40)
			}
			stream = append(stream, v)
			c.w.record(v)
			if i%(c.size/4) != 0 {
				continue
			}
			held := slices.Clone(stream[max(0, len(stream)-c.size):])
			slices.Sort(held)
			want := windowStats{
				count: int64(len(stream)),
				p50:   NearestRank(held, 50),
				p95:   NearestRank(held, 95),
				p99:   NearestRank(held, 99),
				max:   held[len(held)-1],
			}
			if got := c.w.stats(); got != want {
				t.Fatalf("size %d after %d samples: got %+v, want %+v", c.size, i, got, want)
			}
		}
	}
	var empty window
	if got := empty.stats(); got != (windowStats{}) {
		t.Errorf("empty window stats = %+v", got)
	}
}

// TestWindowP99MatchesStats: the p99-slow gate's one-pass p99 equals
// the sorted summary's p99, and reports the same count, on random
// windows that are empty, hold fewer than the gate's 64 samples, are
// exactly full, and have wrapped. Narrow value ranges give ties.
func TestWindowP99MatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		size := []int{1, 7, 64, 100, latencyWindow}[trial%5]
		w := &window{size: size}
		var n int
		switch trial % 4 {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Intn(min(size, 63))
		case 2:
			n = size
		default:
			n = size + 1 + rng.Intn(3*size)
		}
		span := []int64{3, 1000, 1 << 40}[rng.Intn(3)]
		for i := 0; i < n; i++ {
			w.record(rng.Int63n(span))
		}
		st := w.stats()
		if p99, count := w.p99(); p99 != st.p99 || count != st.count {
			t.Fatalf("size %d, %d samples: p99() = %d, %d; stats() = %d, %d", size, n, p99, count, st.p99, st.count)
		}
	}
}
