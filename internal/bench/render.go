package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pdce/internal/obs"
)

// expOrder is the canonical experiment ordering for generated docs.
var expOrder = []string{"F", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C9b", "C10", "C11", "C12"}

// expTitles are the built-in section titles; an experiment's Title in
// experiments.json overrides them. Retired experiments keep their
// titles so their recorded runs still render as history: C9b (the
// dense/sparse/auto engine comparison) and C10–C12 (serving
// throughput, cluster serving and fleet restart, whose guarantees are
// now tests and whose speed cmd/pdcebench measures).
var expTitles = map[string]string{
	"F":   "Figures 1–13: paper transformation vs. implementation",
	"C1":  "pde wall-clock scaling on structured programs",
	"C2":  "pfe scaling and the pfe/pde cost ratio",
	"C3":  "code growth factor w (§6.2)",
	"C4":  "driver iterations r until stabilization (§6.3)",
	"C5":  "optimization power: dynamic assignment savings vs. baselines",
	"C6":  "safety ablation: all-paths (paper) vs. some-path (eager) sinking",
	"C7":  "assignment hoisting cannot eliminate partial deadness",
	"C8":  "liveness pressure before/after pde",
	"C9":  "incremental driver and batch-optimization throughput",
	"C9b": "dataflow engines: dense vs. sparse vs. auto",
	"C10": "serving throughput: cold vs. warm content-addressed cache",
	"C11": "cluster serving: replica scaling, affinity, fault tolerance",
	"C12": "shared persistence: fleet kill/reschedule recovery through the L2 store",
}

// Renderer turns a BENCH_paper.json history into the generated pieces
// of the reproduction docs. Every render method is deterministic:
// rendering the same history twice yields identical bytes, which is
// what lets the drift guard byte-compare committed docs against a
// fresh render.
type Renderer struct {
	H *obs.BenchHistory
	M *Matrix
}

// NewRenderer builds a renderer; a nil matrix uses the defaults.
func NewRenderer(h *obs.BenchHistory, m *Matrix) *Renderer {
	if m == nil {
		m = DefaultMatrix()
	}
	return &Renderer{H: h, M: m}
}

// docRun picks the run that documents experiment exp: the newest
// non-milestone run that measured it.
func (r *Renderer) docRun(exp string) *obs.BenchRun {
	return r.H.Newest(func(run *obs.BenchRun) bool {
		return run.Kind != "milestone" && run.HasExp(exp)
	})
}

// title returns the section title for an experiment.
func (r *Renderer) title(exp string) string {
	if e := r.M.Exp(exp); e != nil && e.Title != "" {
		return e.Title
	}
	if t, ok := expTitles[exp]; ok {
		return t
	}
	return exp
}

// expsPresent lists every experiment measured by any non-milestone
// run, in canonical order (unknown ids follow, sorted).
func (r *Renderer) expsPresent() []string {
	seen := map[string]bool{}
	for _, run := range r.H.Runs {
		if run.Kind == "milestone" {
			continue
		}
		for _, p := range run.Records {
			seen[p.Exp] = true
		}
	}
	var out []string
	for _, id := range expOrder {
		if seen[id] {
			out = append(out, id)
			delete(seen, id)
		}
	}
	var rest []string
	for id := range seen {
		rest = append(rest, id)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Blocks returns every named generated block the splicer maintains in
// the hand-written docs: "exp:<ID>" for each measured experiment plus
// "readme-perf" for the README performance table.
func (r *Renderer) Blocks() map[string]string {
	blocks := map[string]string{"readme-perf": r.ReadmePerfBlock()}
	for _, exp := range r.expsPresent() {
		blocks["exp:"+exp] = r.ExpBlock(exp)
	}
	return blocks
}

// ExpBlock renders one experiment's generated table (with its source
// caption) for splicing into EXPERIMENTS.md.
func (r *Renderer) ExpBlock(exp string) string {
	run := r.docRun(exp)
	if run == nil {
		return "_No recorded run measures " + exp + "._\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Run `%s` (%s, seeds %d); median across repeats, ±MAD where nonzero.\n\n",
		run.RunID, run.Kind, run.Seeds)
	b.WriteString(r.expTable(run, exp))
	return b.String()
}

// expTable renders the generic variance-aware table of one experiment
// in one run: a row per measurement series, the wall-time aggregate
// columns where measured, then one column per metric (median ±MAD).
func (r *Renderer) expTable(run *obs.BenchRun, exp string) string {
	aggs := run.Aggregates
	if len(aggs) == 0 {
		aggs = obs.AggregateBench(run.Records)
	}
	type seriesKey struct {
		name string
		n    int
	}
	var order []seriesKey
	series := map[seriesKey]map[string]obs.BenchStat{}
	metricSet := map[string]bool{}
	hasTime, hasN := false, false
	for _, a := range aggs {
		if a.Exp != exp {
			continue
		}
		k := seriesKey{a.Name, a.N}
		m, ok := series[k]
		if !ok {
			m = map[string]obs.BenchStat{}
			series[k] = m
			order = append(order, k)
		}
		m[a.Metric] = a
		if a.Metric == obs.BenchTimeMetric {
			hasTime = true
		} else {
			metricSet[a.Metric] = true
		}
		if a.N != 0 {
			hasN = true
		}
	}
	if len(order) == 0 {
		return "_No data points for " + exp + "._\n"
	}
	metrics := make([]string, 0, len(metricSet))
	for m := range metricSet {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)

	header := []string{"series"}
	align := []string{"---"}
	if hasN {
		header, align = append(header, "n"), append(align, "---:")
	}
	if hasTime {
		header = append(header, "time (median)", "p95", "mad", "min…max")
		align = append(align, "---:", "---:", "---:", "---:")
	}
	for _, m := range metrics {
		header, align = append(header, m), append(align, "---:")
	}
	var b strings.Builder
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	b.WriteString("|" + strings.Join(align, "|") + "|\n")
	for _, k := range order {
		row := []string{k.name}
		if hasN {
			if k.n != 0 {
				row = append(row, fmt.Sprintf("%d", k.n))
			} else {
				row = append(row, "–")
			}
		}
		if hasTime {
			if t, ok := series[k][obs.BenchTimeMetric]; ok {
				row = append(row, fmtDur(t.Median), fmtDur(t.P95), fmtDur(t.MAD),
					fmtDur(t.Min)+"…"+fmtDur(t.Max))
			} else {
				row = append(row, "–", "–", "–", "–")
			}
		}
		for _, m := range metrics {
			if st, ok := series[k][m]; ok {
				cell := fmtF(st.Median)
				if st.MAD > 0 {
					cell += " ±" + fmtF(st.MAD)
				}
				row = append(row, cell)
			} else {
				row = append(row, "–")
			}
		}
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// milestoneRuns returns the hand-recorded historical runs, in history
// order (oldest first).
func (r *Renderer) milestoneRuns() []*obs.BenchRun {
	var out []*obs.BenchRun
	for i := range r.H.Runs {
		if r.H.Runs[i].Kind == "milestone" {
			out = append(out, &r.H.Runs[i])
		}
	}
	return out
}

// milestoneLabel derives the column label from the run id: everything
// after the first dash, dashes spaced ("m0-seed" → "seed").
func milestoneLabel(run *obs.BenchRun) string {
	id := run.RunID
	if i := strings.Index(id, "-"); i >= 0 {
		id = id[i+1:]
	}
	return strings.ReplaceAll(id, "-", " ")
}

// ReadmePerfBlock renders the README performance table: the
// BenchmarkPDEScaling trajectory across the recorded optimization
// milestones, plus the latest committed run's headline number.
func (r *Renderer) ReadmePerfBlock() string {
	miles := r.milestoneRuns()
	if len(miles) == 0 {
		return "_No milestone runs recorded in BENCH_paper.json._\n"
	}
	first, last := miles[0], miles[len(miles)-1]
	var ns []int
	for _, p := range first.Records {
		if p.Exp == "PERF" && p.Name == "pde-scaling" {
			ns = append(ns, p.N)
		}
	}
	sort.Ints(ns)

	header := []string{"n (stmts)", milestoneLabel(first) + " (ns/op)"}
	align := []string{"---:", "---:"}
	for _, m := range miles[1:] {
		header, align = append(header, milestoneLabel(m)), append(align, "---:")
	}
	header = append(header, "total speedup", "allocs "+milestoneLabel(first), "allocs now")
	align = append(align, "---:", "---:", "---:")

	var b strings.Builder
	b.WriteString("| " + strings.Join(header, " | ") + " |\n")
	b.WriteString("|" + strings.Join(align, "|") + "|\n")
	for _, n := range ns {
		row := []string{fmt.Sprintf("%d", n)}
		var firstNS, lastNS float64
		for _, m := range miles {
			st, ok := m.Stat("PERF", "pde-scaling", n, obs.BenchTimeMetric)
			if !ok {
				row = append(row, "–")
				continue
			}
			row = append(row, groupInt(int64(st.Median)))
			if m == first {
				firstNS = st.Median
			}
			if m == last {
				lastNS = st.Median
			}
		}
		if firstNS > 0 && lastNS > 0 {
			row = append(row, fmt.Sprintf("%.1fx", firstNS/lastNS))
		} else {
			row = append(row, "–")
		}
		for _, m := range []*obs.BenchRun{first, last} {
			if st, ok := m.Stat("PERF", "pde-scaling", n, "allocs"); ok {
				row = append(row, groupInt(int64(st.Median)))
			} else {
				row = append(row, "–")
			}
		}
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if line := r.latestScalingLine(); line != "" {
		b.WriteString("\n" + line + "\n")
	}
	return b.String()
}

// latestScalingLine summarizes the newest recorded C1 measurement at
// its largest program size.
func (r *Renderer) latestScalingLine() string {
	run := r.docRun("C1")
	if run == nil {
		return ""
	}
	aggs := run.Aggregates
	if len(aggs) == 0 {
		aggs = obs.AggregateBench(run.Records)
	}
	best := obs.BenchStat{N: -1}
	for _, a := range aggs {
		if a.Exp == "C1" && a.Metric == obs.BenchTimeMetric && a.N > best.N {
			best = a
		}
	}
	if best.N < 0 {
		return ""
	}
	return fmt.Sprintf("Latest recorded run (`%s`, %s): full pde fixpoint at n=%d in %s median (±%s MAD over %d repeat(s); see [docs/BENCHMARKS.md](docs/BENCHMARKS.md)).",
		run.RunID, run.Kind, best.N, fmtDur(best.Median), fmtDur(best.MAD), best.Count)
}

// BenchmarksDoc renders the whole generated docs/BENCHMARKS.md.
func (r *Renderer) BenchmarksDoc() string {
	var b strings.Builder
	b.WriteString("<!-- GENERATED FILE — do not edit. `go run ./cmd/benchreport` regenerates it from BENCH_paper.json. -->\n\n")
	b.WriteString("# Benchmarks — generated reproduction record\n\n")
	b.WriteString("Every table below is rendered by `cmd/benchreport` from the committed\n")
	b.WriteString("`BENCH_paper.json` run history (written by `cmd/benchpaper` executing the\n")
	b.WriteString("`experiments.json` matrix). Numbers are medians across a run's repeats;\n")
	b.WriteString("±MAD marks the spread across repeats. The clock-free numbers of a quick\n")
	b.WriteString("run are pinned exactly by `TestPaperClaimsGolden` (cmd/benchpaper). See\n")
	b.WriteString("[EXPERIMENTS-HOWTO.md](EXPERIMENTS-HOWTO.md) for the workflow and\n")
	b.WriteString("[EXPERIMENTS.md](../EXPERIMENTS.md) for the interpretation of each\n")
	b.WriteString("experiment against the paper's claims.\n\n")

	b.WriteString("## Run inventory\n\n")
	b.WriteString("| run | kind | time | seeds | repeats | gomaxprocs | points | note |\n")
	b.WriteString("|-----|------|------|------:|--------:|-----------:|-------:|------|\n")
	for i := range r.H.Runs {
		run := &r.H.Runs[i]
		t := run.Time
		if t == "" {
			t = "–"
		}
		note := run.Note
		if note == "" {
			note = "–"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %d | %d | %d | %d | %s |\n",
			run.RunID, run.Kind, t, run.Seeds, run.Repeats, run.GOMAXPROCS,
			len(run.Records), note)
	}
	b.WriteString("\n")

	for _, exp := range r.expsPresent() {
		fmt.Fprintf(&b, "## %s — %s\n\n", exp, r.title(exp))
		b.WriteString(r.ExpBlock(exp))
		b.WriteString("\n")
	}

	b.WriteString("## Performance trajectory\n\n")
	if miles := r.milestoneRuns(); len(miles) > 0 {
		b.WriteString("`BenchmarkPDEScaling` (full pde fixpoint, ns/op medians) across the\n")
		b.WriteString("recorded optimization milestones:\n\n")
		b.WriteString(r.ReadmePerfBlock())
		b.WriteString("\n")
	}
	b.WriteString("C1 scaling medians at each run's largest measured size:\n\n")
	b.WriteString("| run | kind | n | time (median) | mad |\n")
	b.WriteString("|-----|------|--:|--------------:|----:|\n")
	for i := range r.H.Runs {
		run := &r.H.Runs[i]
		if run.Kind == "milestone" || !run.HasExp("C1") {
			continue
		}
		aggs := run.Aggregates
		if len(aggs) == 0 {
			aggs = obs.AggregateBench(run.Records)
		}
		best := obs.BenchStat{N: -1}
		for _, a := range aggs {
			if a.Exp == "C1" && a.Metric == obs.BenchTimeMetric && a.N > best.N {
				best = a
			}
		}
		if best.N < 0 {
			continue
		}
		fmt.Fprintf(&b, "| `%s` | %s | %d | %s | %s |\n",
			run.RunID, run.Kind, best.N, fmtDur(best.Median), fmtDur(best.MAD))
	}
	return b.String()
}

// fmtDur formats a nanosecond quantity as a human duration with a
// fixed, deterministic precision per magnitude.
func fmtDur(ns float64) string {
	if ns <= 0 {
		return "0s"
	}
	d := float64(ns)
	switch {
	case d < 1e3:
		return fmt.Sprintf("%.0fns", d)
	case d < 1e6:
		return sig3(d/1e3) + "µs"
	case d < 1e9:
		return sig3(d/1e6) + "ms"
	default:
		return sig3(d/1e9) + "s"
	}
}

// sig3 prints v (known to be in [0.001, 1000)) with three significant
// digits using fixed decimal notation.
func sig3(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtF formats a metric value: integers exactly, fractions with a
// magnitude-scaled fixed precision.
func fmtF(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// groupInt formats an integer with comma thousands separators.
func groupInt(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// RunStamp formats a wall-clock time as the run id cmd/benchpaper
// uses, so ids sort chronologically in the inventory.
func RunStamp(t time.Time) string {
	return t.UTC().Format("20060102-150405")
}
