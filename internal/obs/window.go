package obs

import (
	"cmp"
	"slices"
	"sync"
)

// latencyWindow is the default window size: large enough for stable
// p95 figures, small enough that a snapshot copy is cheap.
const latencyWindow = 1024

// window is the one latency primitive of this package: a fixed ring
// of the most recent int64 samples plus a lifetime count. Its size is its only parameter; the zero value
// holds latencyWindow samples. Safe for concurrent use.
type window struct {
	size int

	mu    sync.Mutex
	ring  []int64
	next  int
	count int64
}

// windowStats summarizes a window: the lifetime sample count, and
// nearest-rank percentiles and the maximum over the samples it holds.
// All zero for an empty window.
type windowStats struct {
	count              int64
	p50, p95, p99, max int64
}

// record adds one sample, displacing the oldest once the ring is full.
func (w *window) record(v int64) {
	w.mu.Lock()
	if w.ring == nil {
		w.ring = make([]int64, cmp.Or(w.size, latencyWindow))
	}
	w.ring[w.next] = v
	w.next = (w.next + 1) % len(w.ring)
	w.count++
	w.mu.Unlock()
}

// stats sorts a copy of the held samples and reads off the summary.
func (w *window) stats() windowStats {
	w.mu.Lock()
	held := slices.Clone(w.ring[:min(w.count, int64(len(w.ring)))])
	st := windowStats{count: w.count}
	w.mu.Unlock()
	if len(held) == 0 {
		return st
	}
	slices.Sort(held)
	st.p50 = NearestRank(held, 50)
	st.p95 = NearestRank(held, 95)
	st.p99 = NearestRank(held, 99)
	st.max = held[len(held)-1]
	return st
}

// p99 returns stats().p99 and the lifetime count in one pass over the
// held samples, with no copy or sort: the nearest-rank p99 of n
// samples is their k-th largest, k = n - ceil(99n/100) + 1, which is
// at most 11 for n <= 1,024. The p99-slow gate reads it per request.
func (w *window) p99() (p99, count int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	held := w.ring[:min(w.count, int64(len(w.ring)))]
	if len(held) == 0 {
		return 0, w.count
	}
	k := len(held) - (99*len(held)+99)/100 + 1
	// top holds the k largest samples seen so far, in descending order.
	var buf [16]int64
	top := buf[:0]
	for _, v := range held {
		switch {
		case len(top) < k:
			top = append(top, v)
		case v > top[k-1]:
			top[k-1] = v
		default:
			continue
		}
		for i := len(top) - 1; i > 0 && top[i-1] < top[i]; i-- {
			top[i-1], top[i] = top[i], top[i-1]
		}
	}
	return top[k-1], w.count
}

// NearestRank returns the p-th percentile (0 < p <= 100) of an
// ascending sample under the nearest-rank definition: the sample at
// 1-based rank ceil(p/100 · n), so every reported value was actually
// measured, never interpolated. An empty sample yields the zero value.
func NearestRank[T cmp.Ordered](sorted []T, p int) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	r := (p*len(sorted) + 99) / 100
	return sorted[min(max(r, 1), len(sorted))-1]
}
