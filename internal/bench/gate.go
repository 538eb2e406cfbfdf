package bench

import (
	"fmt"
	"sort"
	"strings"

	"pdce/internal/obs"
)

// Metric directions: what "worse" means. Metrics not listed (and not
// overridden in CheckConfig.Directions) are skipped — gating a metric
// whose better direction is unknown would turn every improvement into
// a CI failure.
var metricDirections = map[string]string{
	obs.BenchTimeMetric: "lower",
	"violations":        "lower",
	"pde_violations":    "lower",
	"node_visits":       "lower",
	"w_mean":            "lower",
	"w_max":             "lower",
	"exponent":          "lower",

	"ok":             "higher",
	"programs_per_s": "higher",
	"speedup":        "higher",
	"dce":            "higher",
	"fce":            "higher",
	"dudce":          "higher",
	"ssadce":         "higher",
	"pde1":           "higher",
	"pde":            "higher",
	"pfe":            "higher",
	"pde_savings":    "higher",
}

// timeDerived reports whether a metric moves with the host's clock and
// load (wall times, throughput, speedup ratios), which widens its
// relative band floor.
func timeDerived(metric string) bool {
	return metric == obs.BenchTimeMetric ||
		strings.Contains(metric, "programs_per_s") ||
		strings.HasPrefix(metric, "speedup")
}

// Regression is one metric of the newest run that moved outside its
// variance band in the worse direction.
type Regression struct {
	Exp       string
	Name      string
	N         int
	Metric    string
	Direction string  // "lower" or "higher" is better
	Newest    float64 // newest run's median
	Baseline  float64 // median of the baseline window's medians
	Band      float64 // allowed deviation around the baseline
}

func (r Regression) String() string {
	series := r.Name
	if r.N != 0 {
		series = fmt.Sprintf("%s n=%d", r.Name, r.N)
	}
	return fmt.Sprintf("%s/%s %s: %s is worse than baseline %s beyond the ±%s band (%s is better)",
		r.Exp, series, r.Metric, fmtF(r.Newest), fmtF(r.Baseline), fmtF(r.Band), r.Direction)
}

// GateResult is the regression gate's verdict over one history.
type GateResult struct {
	Run         string   // newest run id, the run under test
	Baselines   []string // baseline window run ids, newest first
	Checked     int      // metrics compared
	Skipped     int      // metrics without a direction or a baseline
	Regressions []Regression
}

// Check gates the newest run of the history against the baseline
// window: the up-to-Window preceding non-milestone runs at the same
// scale (quick vs. full). A metric regresses only when its median
// moves in the worse direction beyond the measured variance band
//
//	max(MADK·max(window MAD, newest run's across-repeat MAD),
//	    floor·|baseline median|) · tolerance
//
// so noisy metrics get wide bands from their own history and
// deterministic metrics fall back to the relative floor. tolerance
// (≤0 = 1.0) scales every band — the override knob for noisy hosts.
func Check(h *obs.BenchHistory, cfg CheckConfig, tolerance float64) (*GateResult, error) {
	cfg = cfg.withDefaults()
	if tolerance <= 0 {
		tolerance = 1.0
	}
	newest := h.Newest(nil)
	if newest == nil {
		return nil, fmt.Errorf("history has no runs to check")
	}
	var window []*obs.BenchRun
	for i := len(h.Runs) - 1; i >= 0 && len(window) < cfg.Window; i-- {
		run := &h.Runs[i]
		if run == newest || run.Kind == "milestone" || run.Quick != newest.Quick {
			continue
		}
		window = append(window, run)
	}
	res := &GateResult{Run: newest.RunID}
	for _, run := range window {
		res.Baselines = append(res.Baselines, run.RunID)
	}

	aggs := newest.Aggregates
	if len(aggs) == 0 {
		aggs = obs.AggregateBench(newest.Records)
	}
	for _, a := range aggs {
		dir := metricDirections[a.Metric]
		if d, ok := cfg.Directions[a.Metric]; ok {
			dir = d
		}
		if dir != "lower" && dir != "higher" {
			res.Skipped++
			continue
		}
		var baseMedians []float64
		for _, run := range window {
			if st, ok := run.Stat(a.Exp, a.Name, a.N, a.Metric); ok {
				baseMedians = append(baseMedians, st.Median)
			}
		}
		if len(baseMedians) == 0 {
			res.Skipped++
			continue
		}
		sort.Float64s(baseMedians)
		center := median(baseMedians)
		spread := madOf(baseMedians, center)
		if a.MAD > spread {
			spread = a.MAD
		}
		floor := cfg.RelFloor
		if timeDerived(a.Metric) {
			floor = cfg.TimeRelFloor
		}
		band := cfg.MADK * spread
		if f := floor * abs(center); f > band {
			band = f
		}
		band *= tolerance
		res.Checked++
		worse := (dir == "lower" && a.Median > center+band) ||
			(dir == "higher" && a.Median < center-band)
		if worse {
			res.Regressions = append(res.Regressions, Regression{
				Exp: a.Exp, Name: a.Name, N: a.N, Metric: a.Metric,
				Direction: dir, Newest: a.Median, Baseline: center, Band: band,
			})
		}
	}
	return res, nil
}

func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

func madOf(vals []float64, center float64) float64 {
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = abs(v - center)
	}
	sort.Float64s(devs)
	return median(devs)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
