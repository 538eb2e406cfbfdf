// Bench record schema for the paper-reproduction harness.
//
// cmd/benchpaper executes the experiment matrix declared in
// experiments.json and appends one BenchRun per invocation to the
// BENCH_paper.json history; cmd/benchreport consumes the history to
// regenerate the reproduction documentation. The shapes here are the
// contract between the two (pinned by testdata/bench.schema.json): raw
// per-repeat data points stay in Records, and every number the docs
// consume comes from the variance-aware Aggregates computed across
// repeats.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BenchSchemaVersion is the BENCH_paper.json history format; a
// document of any other version is rejected.
const BenchSchemaVersion = 2

// BenchPoint is one raw measured data point of one experiment repeat.
// Exp/Name/N identify the measurement series; Rep is the repeat index
// within the run (0-based). NSPerOp carries the measured wall time
// where the experiment has one; all other measurements live in
// Metrics under stable names.
type BenchPoint struct {
	Exp     string             `json:"exp"`
	Name    string             `json:"name"`
	N       int                `json:"n,omitempty"`
	Rep     int                `json:"rep"`
	NSPerOp int64              `json:"ns_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchTimeMetric is the pseudo-metric name under which a point's
// NSPerOp participates in aggregation, so wall time gets the same
// variance treatment as every other measurement.
const BenchTimeMetric = "ns_per_op"

// BenchStat is the variance-aware aggregate of one metric of one
// measurement series across a run's repeats.
type BenchStat struct {
	Exp    string  `json:"exp"`
	Name   string  `json:"name"`
	N      int     `json:"n,omitempty"`
	Metric string  `json:"metric"`
	Count  int     `json:"count"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	MAD    float64 `json:"mad"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// BenchRun is one benchpaper invocation: the resolved configuration,
// every raw per-repeat point, and the per-series aggregates.
type BenchRun struct {
	RunID string `json:"run_id"`
	// Kind classifies the run for rendering: "full", "quick",
	// "legacy" (the version-1 report the committed history began
	// from), or "milestone" (a hand-recorded historical data point for
	// the perf-trajectory docs; never a doc table source).
	Kind       string       `json:"kind"`
	Time       string       `json:"time,omitempty"`
	Quick      bool         `json:"quick"`
	Seeds      int          `json:"seeds"`
	Repeats    int          `json:"repeats"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Note       string       `json:"note,omitempty"`
	Exps       []string     `json:"experiments,omitempty"`
	Records    []BenchPoint `json:"records"`
	Aggregates []BenchStat  `json:"aggregates,omitempty"`
}

// BenchHistory is the whole BENCH_paper.json file: an append-only log
// of runs, oldest first.
type BenchHistory struct {
	Schema int        `json:"schema"`
	Runs   []BenchRun `json:"runs"`
}

// benchSeriesKey orders aggregates: first-appearance order of the
// (exp, name, n) series in the record stream, then metric name.
type benchSeriesKey struct {
	exp  string
	name string
	n    int
}

// AggregateBench computes the variance-aware aggregates of a run's raw
// points: for every (exp, name, n) series and every metric observed in
// it (including the ns_per_op pseudo-metric), the median, nearest-rank
// p95, median absolute deviation, and min/max across repeats. The
// result order is deterministic — series in first-appearance order,
// metrics sorted — so marshaling a run is byte-stable.
func AggregateBench(points []BenchPoint) []BenchStat {
	var order []benchSeriesKey
	series := make(map[benchSeriesKey]map[string][]float64)
	for _, p := range points {
		k := benchSeriesKey{p.Exp, p.Name, p.N}
		m, ok := series[k]
		if !ok {
			m = make(map[string][]float64)
			series[k] = m
			order = append(order, k)
		}
		if p.NSPerOp > 0 {
			m[BenchTimeMetric] = append(m[BenchTimeMetric], float64(p.NSPerOp))
		}
		for name, v := range p.Metrics {
			m[name] = append(m[name], v)
		}
	}
	var out []BenchStat
	for _, k := range order {
		m := series[k]
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vals := m[name]
			st := BenchStat{Exp: k.exp, Name: k.name, N: k.n, Metric: name, Count: len(vals)}
			st.Median, st.P95, st.MAD, st.Min, st.Max = benchStats(vals)
			out = append(out, st)
		}
	}
	return out
}

// benchStats computes the aggregate statistics of one value set.
// Quantiles use the nearest-rank method on the sorted values, so every
// reported number is an actually-measured value, not an interpolation.
func benchStats(vals []float64) (median, p95, mad, min, max float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	median = NearestRank(s, 50)
	p95 = NearestRank(s, 95)
	min, max = s[0], s[len(s)-1]
	dev := make([]float64, len(s))
	for i, v := range s {
		d := v - median
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	sort.Float64s(dev)
	mad = NearestRank(dev, 50)
	return median, p95, mad, min, max
}

// Stat returns the aggregate of one metric of one series, computing it
// from the raw records when the run carries no precomputed aggregates
// (milestone runs are hand-recorded without them).
func (r *BenchRun) Stat(exp, name string, n int, metric string) (BenchStat, bool) {
	aggs := r.Aggregates
	if len(aggs) == 0 {
		aggs = AggregateBench(r.Records)
	}
	for _, a := range aggs {
		if a.Exp == exp && a.Name == name && a.N == n && a.Metric == metric {
			return a, true
		}
	}
	return BenchStat{}, false
}

// HasExp reports whether the run measured experiment exp.
func (r *BenchRun) HasExp(exp string) bool {
	for _, p := range r.Records {
		if p.Exp == exp {
			return true
		}
	}
	return false
}

// LoadBenchHistory reads a BENCH_paper.json history. A missing file is
// an empty history.
func LoadBenchHistory(path string) (*BenchHistory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &BenchHistory{Schema: BenchSchemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	return ParseBenchHistory(data)
}

// ParseBenchHistory decodes a history document.
func ParseBenchHistory(data []byte) (*BenchHistory, error) {
	var h BenchHistory
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("bench history: %w", err)
	}
	if h.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("bench history: schema %d, want %d", h.Schema, BenchSchemaVersion)
	}
	return &h, nil
}

// SaveBenchHistory writes the history with stable formatting (the file
// is committed, so regenerating with unchanged data must be a no-op).
func SaveBenchHistory(path string, h *BenchHistory) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// AppendBenchRun loads the history at path, appends the run, and
// writes the history back.
func AppendBenchRun(path string, run BenchRun) error {
	h, err := LoadBenchHistory(path)
	if err != nil {
		return err
	}
	h.Runs = append(h.Runs, run)
	return SaveBenchHistory(path, h)
}

// Newest returns the most recent run satisfying keep (nil = any run
// that is not a milestone), or nil.
func (h *BenchHistory) Newest(keep func(*BenchRun) bool) *BenchRun {
	for i := len(h.Runs) - 1; i >= 0; i-- {
		r := &h.Runs[i]
		if keep == nil {
			if r.Kind != "milestone" {
				return r
			}
			continue
		}
		if keep(r) {
			return r
		}
	}
	return nil
}
