package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"pdce"
)

// tracer records a traced run. Spans come from three places, all kept
// in memory until the run ends:
//
//   - the benchmark's own spans around each public call it makes
//     ("op", "parser", "core", "cfg.format", "client", "replay",
//     "fingerprint"), recorded in store;
//   - its wrapper around Server.Handler ("server.handler"), recorded in
//     handlerStore, a store of its own as if it were another process;
//   - the spans the program already emits: the solver's solve.round /
//     solve.eliminate / solve.sink under an Options.Span, and the
//     server's own trace read back with Server.Traces().Export.
//
// Spans link to their parents by span ID across the three, so one
// operation is one tree from "op" down to the solver's phases.
type tracer struct {
	store        *pdce.TraceStore
	handlerStore *pdce.TraceStore

	mu     sync.Mutex
	spans  []pdce.SpanRecord
	counts map[string]float64 // counters summed over the measured operations
}

func newTracer() *tracer {
	return &tracer{
		store:        pdce.NewTraceStore(1024, 1, 1),
		handlerStore: pdce.NewTraceStore(1024, 1, 1),
		counts:       map[string]float64{},
	}
}

// collect moves one finished trace out of a store into the run's span
// list. Every store here keeps every trace (sample rate 1), and the
// trace is collected as soon as its root ends, before capacity could
// evict it.
func (t *tracer) collect(store *pdce.TraceStore, traceID string) {
	recs := store.Export(traceID)
	t.mu.Lock()
	t.spans = append(t.spans, recs...)
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// addTelemetry sums one solve's analysis counters. The elimination
// analysis counts block visits in pde (dead variables) and slot updates
// in pfe (faint variables, solved slotwise).
func (t *tracer) addTelemetry(tel *pdce.Telemetry, weight float64) {
	if tel == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts["delay_visits"] += weight * float64(tel.Delay.NodeVisits)
	t.counts["elim_visits"] += weight * float64(tel.Dead.NodeVisits+tel.Faint.SlotUpdates)
	t.counts["pushes"] += weight * float64(tel.Delay.WorklistPushes+tel.Dead.WorklistPushes+tel.Faint.WorklistPushes)
	t.counts["vec_ops"] += weight * float64(tel.Delay.VectorOps+tel.Dead.VectorOps+tel.Faint.VectorOps)
	t.counts["solves"] += weight * float64(tel.Delay.Solves+tel.Dead.Solves+tel.Faint.Solves)
	t.counts["seeded"] += weight * float64(tel.Delay.SeededNodes+tel.Dead.SeededNodes)
	t.counts["seedable"] += weight * float64(tel.Delay.SeedableNodes+tel.Dead.SeedableNodes)
}

// mallocs returns the process's cumulative heap allocation count and
// bytes. ReadMemStats stops the world, so it is only called in traced
// runs, outside every span.
func mallocs() (objects, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs), float64(m.TotalAlloc)
}

// wrap puts a "server.handler" span around the pdced handler for
// requests that carry a traceparent (the measured ones). It re-parents
// the server's own root span under its span, and once the handler has
// returned — so the server's trace is complete — collects both.
func (t *tracer) wrap(next http.Handler, serverTraces *pdce.TraceStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := pdce.ParseTraceparent(r.Header.Get("Traceparent"))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		sp := t.handlerStore.StartSpan("server.handler", "pdcebench", parent)
		r.Header.Set("Traceparent", sp.Context().Traceparent())
		next.ServeHTTP(w, r)
		sp.End()
		t.collect(t.handlerStore, sp.TraceID())
		t.collect(serverTraces, sp.TraceID())
	})
}

// layerSums are span durations and self times summed by span name.
type layerSums struct {
	dur, self map[string]float64 // milliseconds
	count     map[string]float64
	rounds    float64
}

func sumLayers(spans []pdce.SpanRecord) layerSums {
	s := layerSums{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]float64{}}
	children := map[string][]interval{}
	for _, sp := range spans {
		if sp.ParentID != "" {
			children[sp.ParentID] = append(children[sp.ParentID], spanInterval(sp))
		}
	}
	for _, sp := range spans {
		s.dur[sp.Name] += float64(sp.DurationNS) / 1e6
		s.self[sp.Name] += float64(selfTime(spanInterval(sp), children[sp.SpanID])) / 1e6
		s.count[sp.Name]++
		if sp.Name == "core" || sp.Name == "solve" {
			// The solver annotates the span it was handed.
			n, _ := strconv.Atoi(sp.Attrs["rounds"])
			s.rounds += float64(n)
		}
	}
	return s
}

func spanInterval(sp pdce.SpanRecord) interval {
	return interval{sp.StartUnixNS, sp.StartUnixNS + sp.DurationNS}
}

// layerMetrics turns a traced run into the per-layer metrics. ops is
// the number of measured operations; hits and sheds are counted by the
// serving loop from the responses.
func (t *tracer) layerMetrics(ops int, hits, sheds int, rt runtimeDelta, tracedBestP50Rel float64) map[string]float64 {
	s := sumLayers(t.spans)
	n := float64(ops)
	c := t.counts
	reuse := 0.0
	if c["seedable"] > 0 {
		reuse = 1 - c["seeded"]/c["seedable"]
	}
	coverage := 0.0
	if s.dur["op"] > 0 {
		coverage = 1 - s.self["op"]/s.dur["op"]
	}
	return map[string]float64{
		"parser.ms_per_op":                  div(s.dur["parser"], n),
		"parser.allocs_per_op":              div(c["parser_allocs"], n),
		"fingerprint.ms_per_op":             div(s.dur["fingerprint"], n),
		"cfg.format.ms_per_op":              div(s.dur["cfg.format"], n),
		"core.ms_per_op":                    div(s.dur["core"]+s.dur["solve"], n),
		"core.setup.ms_per_op":              div(s.self["core"]+s.self["solve"], n),
		"core.eliminate.ms_per_op":          div(s.dur["solve.eliminate"], n),
		"core.sink.ms_per_op":               div(s.dur["solve.sink"], n),
		"core.rounds_per_op":                div(s.rounds, n),
		"core.allocs_per_op":                div(c["core_allocs"], n),
		"core.alloc_bytes_per_op":           div(c["core_bytes"], n),
		"analysis.delay.node_visits_per_op": div(c["delay_visits"], n),
		"analysis.elim.node_visits_per_op":  div(c["elim_visits"], n),
		"analysis.worklist_pushes_per_op":   div(c["pushes"], n),
		"analysis.vec_ops_per_op":           div(c["vec_ops"], n),
		"analysis.solves_per_op":            div(c["solves"], n),
		"analysis.reuse_rate":               reuse,
		"server.handler.ms_per_op":          div(s.dur["server.handler"], n),
		"server.handler.self_ms_per_op":     div(s.self["server.handler"]+s.self["server.optimize"], n),
		"server.cache.ms_per_op":            div(s.dur["server.cache"], n),
		"server.admission.wait_ms_per_op":   div(s.dur["server.admission"], n),
		"server.solve.ms_per_op":            div(s.dur["solve"], n),
		"server.l1_hit_rate":                div(float64(hits), n),
		"server.solves_per_op":              div(s.count["solve"], n),
		"server.shed_rate":                  div(float64(sheds), n),
		"client.ms_per_op":                  div(s.self["client"], n),
		"runtime.gc_cpu_share":              rt.gcCPUShare(),
		"runtime.gc_cycles_per_op":          div(rt.gcCycles, n),
		"runtime.alloc_bytes_per_op":        div(rt.allocBytes, n),
		"bench.traced_latency_best_p50_rel": tracedBestP50Rel,
		"bench.self_time_coverage":          coverage,
	}
}

// writeSpans writes every span of the run to dir/spans-<workload>.json.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
