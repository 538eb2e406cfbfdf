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
