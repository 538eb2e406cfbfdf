package main

import "sort"

// metricDef names one printed metric and its unit. BENCHMARK.json
// lists the same names and units, with each metric's direction and
// bound; main_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a caller of the
// library or of pdced sees.
var endToEnd = []metricDef{
	{"latency_best_p50_rel", "ratio"},
	{"latency_best_mean_rel", "ratio"},
	{"mem_p95_mb", "MB"},
	{"setup_s", "s"},
	{"code_size_ratio", "ratio"},
}

// perLayer are the metrics of a traced run. Times are span durations
// (or self times) summed over the measured operations and divided by
// their count; counts are divided the same way.
var perLayer = []metricDef{
	{"parser.ms_per_op", "ms"},
	{"parser.allocs_per_op", "count"},
	{"fingerprint.ms_per_op", "ms"},
	{"cfg.format.ms_per_op", "ms"},
	{"core.ms_per_op", "ms"},
	{"core.setup.ms_per_op", "ms"},
	{"core.eliminate.ms_per_op", "ms"},
	{"core.sink.ms_per_op", "ms"},
	{"core.rounds_per_op", "count"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_bytes_per_op", "B"},
	{"analysis.delay.node_visits_per_op", "count"},
	{"analysis.elim.node_visits_per_op", "count"},
	{"analysis.worklist_pushes_per_op", "count"},
	{"analysis.vec_ops_per_op", "count"},
	{"analysis.solves_per_op", "count"},
	{"analysis.reuse_rate", "ratio"},
	{"server.handler.ms_per_op", "ms"},
	{"server.handler.self_ms_per_op", "ms"},
	{"server.cache.ms_per_op", "ms"},
	{"server.admission.wait_ms_per_op", "ms"},
	{"server.solve.ms_per_op", "ms"},
	{"server.l1_hit_rate", "ratio"},
	{"server.solves_per_op", "count"},
	{"server.shed_rate", "ratio"},
	{"client.ms_per_op", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"bench.traced_latency_best_p50_rel", "ratio"},
	{"bench.self_time_coverage", "ratio"},
}

// nearestRank returns the p-th percentile (0 < p <= 100) of ascending
// values by the nearest-rank method: the smallest value with at least
// p% of the samples at or below it. Integer arithmetic keeps 95% of 100
// samples at rank 95, where float rounding would give 96.
func nearestRank(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := (p*len(sorted) + 99) / 100
	k = min(max(k, 1), len(sorted))
	return sorted[k-1]
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (its
// default "exclusive" method), so the spreads printed here match the
// ones a Python reader computes from the same numbers.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// div is x/y, or 0 when y is 0: a run that measured nothing reports
// zeros rather than values JSON cannot encode.
func div(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// median of values, or 0 when there are none.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// interval is a half-open span of unix nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the part of parent that none of children covers:
// its duration minus the union of the children's intervals, clipped to
// the parent. Overlapping children (concurrent work) count once.
func selfTime(parent interval, children []interval) int64 {
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if lo < hi {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, cur := int64(0), parent.lo
	for _, iv := range ivs {
		lo := max(iv.lo, cur)
		if iv.hi > lo {
			covered += iv.hi - lo
			cur = iv.hi
		}
	}
	return parent.hi - parent.lo - covered
}
