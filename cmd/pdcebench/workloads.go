package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdce"
	"pdce/internal/server"
)

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	why  string
	mode pdce.Mode
	// programs distinct programs of about stmts statements each are
	// generated from the seed; irreducible selects the arbitrary-CFG
	// generator.
	programs    int
	stmts       int
	irreducible bool
	// serve drives the optimizer through the pdced handler instead of
	// the library; cold renames every request so that no key repeats.
	serve, cold bool
	// warmup is the number of programs in one set-up pass of a library
	// workload. The set-up is repeated, so it covers a prefix of the
	// program set rather than all of it.
	warmup int
}

// Every program of a set is run many times in one run, and the latency
// metrics are taken over each program's best time (see measure), so a
// set is small enough for a program to come round at least ten times.
// Percentiles over a set then vary with the seed, since a program's
// cost varies with its shape by about ±17%.
var workloads = []workload{
	{
		name: "solve-large",
		why:  "one library caller runs ParseCFG, Optimize (pde) and Format on 4096-statement structured programs; solver and parser do the work and no cache can help",
		mode: pdce.Dead, programs: 32, stmts: 4096, warmup: 16,
	},
	{
		name: "solve-faint-irreducible",
		why:  "the same operation with pfe on 1024-statement irreducible programs: the slotwise faint analysis, re-solved each round, on graphs that take the dense fallback",
		mode: pdce.Faint, programs: 64, stmts: 1024, irreducible: true, warmup: 32,
	},
	{
		name: "serve-warm",
		why:  "one client resends a 64-program working set filled during set-up, so every request is an L1 hit: parse, canonical key, lookup and HTTP/JSON are the whole cost",
		mode: pdce.Dead, programs: 64, stmts: 512, serve: true,
	},
	{
		name: "serve-cold",
		why:  "the same server, client and bodies, but each request renames its graph so every key is new: every request solves and writes the cache",
		mode: pdce.Dead, programs: 64, stmts: 512, serve: true, cold: true,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig holds what one run of a workload takes besides the table
// row.
type runConfig struct {
	seed     int64
	duration time.Duration // length of the measured phase
	traced   bool
	// setups is how often the set-up is repeated, half before the
	// measured phase and half after it; setup_s is the median.
	setups int
	// checkRuns is the number of sampled executions per oracle check.
	checkRuns int
	// spansDir receives the span file of a traced run.
	spansDir string
	// tamper, when set, rewrites every optimized program before it is
	// checked. Tests use it to inject wrong output.
	tamper func(string) string
}

// setupsBefore is the number of set-ups before the measured phase; the
// rest follow it. The host's other guests slow the benchmark in bursts
// of a few seconds, which can cover every set-up made in one window.
// Over ten seeds, the median of three set-ups before the phase spread
// 0.13-0.37 (q3 - q1 over the median) between runs; the median of three
// before and three after it, 0.10-0.23.
func (c runConfig) setupsBefore() int { return (c.setups + 1) / 2 }

// result is what one run measured.
type result struct {
	digest string

	attempted int // set-up, measured and checking operations
	failed    int

	ops    int       // measured operations
	best   []float64 // ms, each program's best latency, ascending (see measure)
	refMs  float64   // the reference kernel's best time
	memP95 float64   // bytes
	rt     runtimeDelta
	setups []float64 // seconds

	origStmts, finalStmts int
	hits, misses, sheds   int
}

// fail counts one failed operation and reports the first few.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "pdcebench: FAIL: "+format+"\n", args...)
	}
}

func (r *result) attempt() { r.attempted++ }

// bestP50Rel is the median best latency over the programs, in multiples
// of the reference kernel's best time.
func (r *result) bestP50Rel() float64 { return div(nearestRank(r.best, 50), r.refMs) }

// endToEnd computes the untraced run's metrics.
func (r *result) endToEnd() map[string]float64 {
	var sum float64
	for _, b := range r.best {
		sum += b
	}
	return map[string]float64{
		"latency_best_p50_rel":  r.bestP50Rel(),
		"latency_best_mean_rel": div(sum/float64(max(len(r.best), 1)), r.refMs),
		"mem_p95_mb":            r.memP95 / (1 << 20),
		"setup_s":               median(r.setups),
		"code_size_ratio":       div(float64(r.finalStmts), float64(r.origStmts)),
	}
}

// generate makes a workload's inputs: program texts in the CFG format,
// a function of the seed alone. The optimizer only ever sees this text.
func generate(w workload, seed int64) []string {
	srcs := make([]string, w.programs)
	for i := range srcs {
		srcs[i] = pdce.Generate(pdce.GenParams{
			Seed:        seed*1_000_003 + int64(i),
			Stmts:       w.stmts,
			Irreducible: w.irreducible,
		}).Format()
	}
	return srcs
}

// digest identifies a run's inputs, so two runs can be shown to have
// measured the same programs.
func digest(srcs []string) string {
	h := sha256.New()
	for _, s := range srcs {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runWorkload generates the inputs, sets up, measures for
// cfg.duration, and checks every output.
func runWorkload(w workload, cfg runConfig) (*result, *tracer, error) {
	srcs := generate(w, cfg.seed)
	r := &result{digest: digest(srcs)}
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	if !w.serve {
		runSolve(w, cfg, srcs, r, t)
		return r, t, nil
	}
	return r, t, runServe(w, cfg, srcs, r, t)
}

// --- library workloads ---------------------------------------------------

// solveOp is one library operation: ParseCFG → Optimize → Format.
func solveOp(src string, opts pdce.Options) (string, error) {
	p, err := pdce.ParseCFG(src)
	if err != nil {
		return "", err
	}
	opt, _, err := p.Optimize(opts)
	if err != nil {
		return "", err
	}
	return opt.Format(), nil
}

// solveOpTraced is solveOp with a span around each public call and
// the allocations and solver counters of each layer.
func solveOpTraced(t *tracer, src string, opts pdce.Options) (string, error) {
	root := t.store.StartSpan("op", "pdcebench", pdce.SpanContext{})
	defer func() {
		root.End()
		t.collect(t.store, root.TraceID())
	}()
	a0, _ := mallocs()
	sp := root.Child("parser")
	p, err := pdce.ParseCFG(src)
	sp.End()
	a1, b1 := mallocs()
	if err != nil {
		return "", err
	}
	cs := root.Child("core")
	opts.Span = cs
	opts.Telemetry = true
	opt, st, err := p.Optimize(opts)
	cs.End()
	a2, b2 := mallocs()
	if err != nil {
		return "", err
	}
	t.add("parser_allocs", a1-a0)
	t.add("core_allocs", a2-a1)
	t.add("core_bytes", b2-b1)
	t.addTelemetry(st.Telemetry, 1)
	fs := root.Child("cfg.format")
	out := opt.Format()
	fs.End()
	return out, nil
}

// runSolve runs a library workload: one caller in a closed loop, each
// operation on the next program of the set in turn.
func runSolve(w workload, cfg runConfig, srcs []string, r *result, t *tracer) {
	opts := pdce.Options{Mode: w.mode}
	// first holds each program's first result; every later result for
	// the program must be byte-identical to it.
	first := make([]string, len(srcs))
	run := func(i int, traced bool) (ok bool) {
		r.attempt()
		var out string
		var err error
		if traced {
			out, err = solveOpTraced(t, srcs[i], opts)
		} else {
			out, err = solveOp(srcs[i], opts)
		}
		if cfg.tamper != nil {
			out = cfg.tamper(out)
		}
		switch {
		case err != nil:
			r.fail("%s program %d: %v", w.name, i, err)
			return false
		case first[i] == "":
			first[i] = out
		case out != first[i]:
			r.fail("%s program %d: result differs from its first result", w.name, i)
			return false
		}
		return true
	}

	warm := min(w.warmup, len(srcs))
	setUp := func() {
		start := time.Now()
		for i := range warm {
			run(i, false)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	for range cfg.setupsBefore() {
		setUp()
	}

	m := startMeasure(len(srcs))
	for i := 0; time.Since(m.start) < cfg.duration; i++ {
		t0 := time.Now()
		ok := run(i%len(srcs), t != nil)
		m.done(i%len(srcs), time.Since(t0), ok)
		r.ops++
	}
	m.stop(r)
	for range cfg.setups - cfg.setupsBefore() {
		setUp()
	}

	// Oracle check, once per distinct program: the interpreter replays
	// sampled executions of both programs and compares outputs and
	// per-pattern assignment counts (no execution impaired, Def. 3.6).
	for i, src := range srcs {
		if first[i] == "" {
			run(i, false) // a program the measured phase did not reach
		}
		checkPair(r, w.name, i, src, first[i], cfg.checkRuns)
	}
}

// checkPair runs the oracle on one (input, optimized) pair of program
// texts and adds both sizes to the code-size totals.
func checkPair(r *result, name string, i int, src, out string, runs int) {
	r.attempt()
	orig, err := pdce.ParseCFG(src)
	if err != nil {
		r.fail("%s program %d: input does not parse: %v", name, i, err)
		return
	}
	opt, err := pdce.ParseCFG(out)
	if err != nil {
		r.fail("%s program %d: result does not parse: %v", name, i, err)
		return
	}
	if err := orig.Check(opt, runs); err != nil {
		r.fail("%s program %d: oracle: %v", name, i, err)
		return
	}
	r.origStmts += orig.NumStatements()
	r.finalStmts += opt.NumStatements()
}

// --- serving workloads ---------------------------------------------------

// served is one pdced server on a loopback listener and the client
// that drives it.
type served struct {
	srv    *server.Server
	hs     *http.Server
	done   chan error
	tr     *http.Transport
	client *pdce.Client
}

// cacheEntries bounds the server's result cache. pdced's default is
// 4096, more than a run of serve-cold fills, so the memory of a run
// would count the requests the host let through. A 1024-entry cache is
// full about a third of the way into a run and evicts from then on, so
// the memory reads a full cache; the 64 keys of serve-warm still fit.
const cacheEntries = 1024

// startServer starts a server configured with pdced's flag defaults
// except for the cache size.
func startServer(t *tracer) (*served, error) {
	srv, err := server.New(server.Config{
		CacheEntries:    cacheEntries,
		DefaultDeadline: 10 * time.Second,
		TraceCapacity:   512,
		TraceSample:     1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = t.wrap(h, srv.Traces())
	}
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
		tr:   &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = pdce.NewClient("http://" + ln.Addr().String()).WithHTTPClient(&http.Client{Transport: s.tr})
	return s, nil
}

// stop drains the server and waits for its serving goroutine to end.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.tr.CloseIdleConnections()
	derr := s.srv.Drain(ctx)
	serr := s.hs.Shutdown(ctx)
	<-s.done // Shutdown closed the listener, so Serve has returned
	return errors.Join(derr, serr)
}

// serveRun is the state of one serving workload run.
type serveRun struct {
	w    workload
	cfg  runConfig
	srcs []string
	want []string // library result for each program
	seq  int      // requests sent
	r    *result
}

// next returns the number of the next request.
func (s *serveRun) next() int {
	s.seq++
	return s.seq - 1
}

// rename replaces the graph header (the first line) of a program text.
func rename(text, header string) string {
	return header + text[strings.IndexByte(text, '\n')+1:]
}

// request returns the body of request k for program i and the program
// the server must answer with. A cold request renames its graph to
// cold-<k>: the name is part of the canonical text, so every key is new.
func (s *serveRun) request(k, i int) (body, want string) {
	if !s.w.cold {
		return s.srcs[i], s.want[i]
	}
	header := fmt.Sprintf("graph %q\n", fmt.Sprintf("cold-%d", k))
	return rename(s.srcs[i], header), rename(s.want[i], header)
}

// clientStats counts the caller's requests and their outcomes.
type clientStats struct {
	ops, hits, misses, sheds int
}

// send issues request k for program i and checks the answer. It returns
// the request's latency and whether the answer was right.
func (s *serveRun) send(ctx context.Context, c *pdce.Client, k, i int, cs *clientStats, t *tracer) (time.Duration, bool) {
	s.r.attempt()
	body, want := s.request(k, i)
	var root, client *pdce.Span
	if t != nil {
		root = t.store.StartSpan("op", "pdcebench", pdce.SpanContext{})
		client = root.Child("client")
		ctx = pdce.ContextWithSpan(ctx, client)
	}
	t0 := time.Now()
	resp, state, err := c.Optimize(ctx, "", body, pdce.RequestOptions{Mode: s.w.mode})
	d := time.Since(t0)
	if t != nil {
		client.End()
		root.End()
		t.collect(t.store, root.TraceID())
		s.replay(t, body)
	}
	cs.ops++
	var se *pdce.ServerError
	switch {
	case errors.As(err, &se) && se.Status == http.StatusTooManyRequests:
		cs.sheds++
		s.r.fail("%s request %d: shed: %v", s.w.name, k, err)
	case err != nil:
		s.r.fail("%s request %d: %v", s.w.name, k, err)
	case resp.Degraded:
		s.r.fail("%s request %d: degraded: %s", s.w.name, k, resp.Error)
	default:
		got := resp.Program
		if s.cfg.tamper != nil {
			got = s.cfg.tamper(got)
		}
		if got != want {
			s.r.fail("%s request %d: served program differs from the library result", s.w.name, k)
			return d, false
		}
		switch state {
		case pdce.CacheHit:
			cs.hits++
		case pdce.CacheMiss:
			cs.misses++
		}
		return d, true
	}
	return d, false
}

// replay repeats the handler's parse and key computation on a request
// body under spans of its own: the handler does not span them.
func (s *serveRun) replay(t *tracer, body string) {
	root := t.store.StartSpan("replay", "pdcebench", pdce.SpanContext{})
	sp := root.Child("parser")
	p, err := pdce.ParseCFG(body)
	sp.End()
	if err == nil {
		fp := root.Child("fingerprint")
		p.CacheKey(pdce.Options{Mode: s.w.mode})
		fp.End()
	}
	root.End()
	t.collect(t.store, root.TraceID())
}

// runServe runs a serving workload: one caller in a closed loop against
// one in-process server, over loopback HTTP. With a second caller the
// time metrics were several times noisier on the 2-vCPU host, since the
// callers and the handlers then compete for the processors.
func runServe(w workload, cfg runConfig, srcs []string, r *result, t *tracer) error {
	s := &serveRun{w: w, cfg: cfg, srcs: srcs, r: r, want: make([]string, len(srcs))}
	opts := pdce.Options{Mode: w.mode}
	// The library's results are the reference the served programs must
	// equal; the oracle checks them once per distinct program.
	for i, src := range srcs {
		out, err := solveOp(src, opts)
		if err != nil {
			r.attempt()
			r.fail("%s program %d: library reference: %v", w.name, i, err)
			continue
		}
		s.want[i] = out
		checkPair(r, w.name, i, src, out, cfg.checkRuns)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+2*time.Minute)
	defer cancel()
	// setUp starts a server and fills it. The measured phase uses the
	// last server set up before it; every other one is stopped.
	setUp := func() (*served, error) {
		start := time.Now()
		sv, err := startServer(t)
		if err != nil {
			return nil, err
		}
		var fill clientStats
		for i := range srcs {
			s.send(ctx, sv.client, s.next(), i, &fill, nil)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		return sv, nil
	}
	var sv *served
	for range cfg.setupsBefore() {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return err
			}
		}
		var err error
		if sv, err = setUp(); err != nil {
			return err
		}
	}

	var cs clientStats
	m := startMeasure(len(srcs))
	for time.Since(m.start) < cfg.duration {
		k := s.next()
		d, ok := s.send(ctx, sv.client, k, k%len(srcs), &cs, t)
		m.done(k%len(srcs), d, ok)
	}
	m.stop(r)
	r.ops, r.hits, r.misses, r.sheds = cs.ops, cs.hits, cs.misses, cs.sheds
	if err := sv.stop(); err != nil {
		return err
	}
	for range cfg.setups - cfg.setupsBefore() {
		after, err := setUp()
		if err != nil {
			return err
		}
		if err := after.stop(); err != nil {
			return err
		}
	}
	if t != nil {
		profileServed(t, srcs, opts, r)
	}
	return nil
}

// profileServed measures, one program at a time, what the handler's
// parse and solve allocate and what the solver counts, and weights them
// by how often the measured phase parsed (every request) and solved
// (every miss). Concurrent requests make inline allocation counts
// unattributable.
func profileServed(t *tracer, srcs []string, opts pdce.Options, r *result) {
	opts.Telemetry = true
	n := float64(len(srcs))
	perParse, perSolve := float64(r.ops)/n, float64(r.misses)/n
	for _, src := range srcs {
		a0, _ := mallocs()
		p, err := pdce.ParseCFG(src)
		a1, b1 := mallocs()
		if err != nil {
			continue
		}
		_, st, err := p.Optimize(opts)
		a2, b2 := mallocs()
		if err != nil {
			continue
		}
		t.add("parser_allocs", perParse*(a1-a0))
		t.add("core_allocs", perSolve*(a2-a1))
		t.add("core_bytes", perSolve*(b2-b1))
		t.addTelemetry(st.Telemetry, perSolve)
	}
}

// --- process measurements ------------------------------------------------

// measure brackets the measured phase. It keeps each program's best
// latency, the best of its repetitions in the run, and the best time of
// a fixed reference kernel run every refEvery in between.
//
// The host's other guests slow the benchmark in bursts of seconds and
// in phases of minutes. A best latency leaves the bursts out; the
// phases slow the program and the kernel alike, so the ratio of the two
// leaves them out too. The kernel uses only the standard library, so a
// change to the optimizer cannot move it.
type measure struct {
	start   time.Time
	rt      runtimeDelta
	quit    chan struct{}
	mem     chan float64
	best    []time.Duration // per program; 0 until it answers right
	ref     time.Duration   // the kernel's best time
	lastRef time.Time
}

const refEvery = 50 * time.Millisecond

func startMeasure(programs int) *measure {
	m := &measure{start: time.Now(), rt: readRuntime(),
		quit: make(chan struct{}), mem: make(chan float64, 1), best: make([]time.Duration, programs)}
	go sampleMemory(m.quit, m.mem)
	return m
}

// done records one finished operation on program prog that took d and,
// if ok, answered right, and runs the reference kernel when it is due.
func (m *measure) done(prog int, d time.Duration, ok bool) {
	if ok && (m.best[prog] == 0 || d < m.best[prog]) {
		m.best[prog] = d
	}
	if time.Since(m.lastRef) >= refEvery {
		if k := refKernel(); m.ref == 0 || k < m.ref {
			m.ref = k
		}
		m.lastRef = time.Now()
	}
}

// stop ends the measured phase.
func (m *measure) stop(r *result) {
	for _, d := range m.best {
		if d > 0 {
			r.best = append(r.best, float64(d)/1e6)
		}
	}
	sort.Float64s(r.best)
	r.refMs = float64(m.ref) / 1e6
	r.rt = readRuntime().sub(m.rt)
	close(m.quit)
	r.memP95 = <-m.mem
}

// refSink keeps the compiler from dropping refKernel's work.
var refSink int

// refKernel times a fixed piece of work shaped like the optimizer's:
// map updates, slice growth, small string allocations, a sort and bit
// counting, about 0.5 ms on the host the benchmark was defined on.
func refKernel() time.Duration {
	t0 := time.Now()
	m := make(map[int]int)
	var words []uint64
	var strs []string
	x := uint64(12345)
	for i := 0; i < 6000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[int(x%8192)] += i
		words = append(words, x)
		if i%8 == 0 {
			strs = append(strs, strconv.FormatUint(x, 36))
		}
	}
	sort.Strings(strs)
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	refSink += n + len(m) + len(strs[0])
	return time.Since(t0)
}

// sampleMemory samples the resident memory of the Go runtime (all it
// has mapped minus what it returned to the OS) every 10ms until quit is
// closed, then sends the 95th percentile of the samples on p95.
//
// Unlike the process's ru_maxrss, the samples leave out the garbage of
// set-up and input generation, and the percentile leaves out the rare
// garbage-collector overshoot; either made the peak swing by 10-25%
// between runs of one seed.
func sampleMemory(quit <-chan struct{}, p95 chan<- float64) {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var samples []float64
	for {
		metrics.Read(s)
		samples = append(samples, float64(s[0].Value.Uint64()-s[1].Value.Uint64()))
		select {
		case <-quit:
			sort.Float64s(samples)
			p95 <- nearestRank(samples, 95)
			return
		case <-tick.C:
		}
	}
}

// runtimeDelta holds Go runtime counters (runtime/metrics) read at the
// boundaries of the measured phase.
type runtimeDelta struct {
	gcCPU, totalCPU, idleCPU, gcCycles, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		}
	}
	return runtimeDelta{v[0], v[1], v[2], v[3], v[4]}
}

func (d runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{d.gcCPU - o.gcCPU, d.totalCPU - o.totalCPU, d.idleCPU - o.idleCPU,
		d.gcCycles - o.gcCycles, d.allocBytes - o.allocBytes}
}

// gcCPUShare is the garbage collector's share of the CPU time the Go
// runtime did not spend idle.
func (d runtimeDelta) gcCPUShare() float64 {
	return div(d.gcCPU, d.totalCPU-d.idleCPU)
}
