// Command pdce is the command-line optimizer: it reads a program
// (WHILE-language or low-level CFG format), applies partial dead code
// elimination or one of the baselines, and prints the result.
//
// Usage:
//
//	pdce [flags] [file ...]
//
// With no file, the program is read from standard input. The input
// language is auto-detected ("graph"/"node"/"edge" keywords select the
// CFG format) and can be forced with -lang.
//
// With several files — or a directory, which stands for every regular
// file directly inside it — the optimizer runs in batch mode: all
// programs are optimized concurrently through a bounded worker pool
// (-workers, default GOMAXPROCS) and printed in input order under
// per-program headers. Batch mode supports -mode pde/pfe; if any
// program fails to parse or optimize, the remaining programs still run
// and the exit status is non-zero.
//
// Examples:
//
//	pdce -stats program.cfg
//	pdce -mode pfe -verify program.while
//	pdce -mode lcm -format dot program.cfg | dot -Tpng > out.png
//	pdce -mode none -format cfg program.while   # just lower & print
//	pdce -stats -workers 4 testdata/            # batch over a directory
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pdce"
)

var (
	mode      = flag.String("mode", "pde", "transformation: pde, pfe, dce, fce, ssadce, dudce, lcm, copyprop, hoist, none")
	lang      = flag.String("lang", "auto", "input language: auto, cfg, while")
	format    = flag.String("format", "listing", "output format: listing, cfg, dot")
	stats     = flag.Bool("stats", false, "print transformation statistics to stderr")
	verifyRun = flag.Int("verify", 0, "replay N executions to verify semantics preservation (0 = off)")
	maxRounds = flag.Int("max-rounds", 0, "truncate the pde/pfe fixpoint iteration (0 = run to optimum)")
	keepSynth = flag.Bool("keep-synthetic", false, "keep empty synthetic nodes from edge splitting")
	name      = flag.String("name", "", "program name (defaults to the file name)")
	passes    = flag.String("passes", "", "comma-separated pass pipeline overriding -mode, e.g. lcm,copyprop,pde")
	hot       = flag.String("hot", "", "comma-separated block labels forming the hot region for pde/pfe (default: whole program)")
	trace     = flag.Bool("trace", false, "print the program after every eliminate/sink phase (pde/pfe only)")
	execSeed  = flag.Int64("exec", -1, "instead of printing, run the transformed program with this oracle seed and print its outputs")
	inputs    = flag.String("input", "", "comma-separated initial store for -exec, e.g. n=100,base=7")
	fuel      = flag.Int("fuel", 0, "block-visit bound for -exec (0 = default)")
	workers   = flag.Int("workers", 0, "concurrent optimizations in batch (multi-file) mode, 0 = GOMAXPROCS")

	// Failure-containment flags (pde/pfe only). All failure modes
	// degrade to a usable program: the watchdog returns the best
	// phase-boundary result, verified mode rolls back to the last
	// verified one, a panic returns the input unchanged. The process
	// still exits non-zero so scripts notice the degradation.
	timeout     = flag.Duration("timeout", 0, "wall-clock bound for the whole run; on expiry the best result so far is printed (0 = none)")
	roundBudget = flag.Duration("round-budget", 0, "watchdog bound per fixpoint round (0 = none)")
	verified    = flag.Bool("verified", false, "check every round against the input with the semantics oracle, rolling back on mismatch")
	reproDir    = flag.String("repro-dir", "", "directory for repro bundles of contained optimizer panics")

	// Observability flags (pde/pfe only, except the profiles).
	explainVar  = flag.String("explain", "", "print the named variable's provenance journey through the optimization instead of the program")
	traceJSON   = flag.String("trace-json", "", "write the provenance event stream as JSON to this file ('-' = stdout)")
	metricsJSON = flag.String("metrics-json", "", "write a machine-readable run report (stats + solver metrics) as JSON to this file ('-' = stdout)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	teleAddr    = flag.String("telemetry-addr", "", "serve live batch progress as JSON on this address while a batch runs (e.g. localhost:6060)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pdce:", message(err))
		os.Exit(1)
	}
}

// message is err's text for a line that already starts with "pdce: ",
// without the "pdce: " the pdce package's errors start with.
func message(err error) string { return strings.TrimPrefix(err.Error(), "pdce: ") }

func run() error {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeMemProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "pdce: memprofile:", err)
			}
		}()
	}

	paths, err := expandArgs(flag.Args())
	if err != nil {
		return err
	}
	if len(paths) > 1 {
		return runBatch(paths)
	}

	if *teleAddr != "" {
		return fmt.Errorf("-telemetry-addr requires batch mode (several input files)")
	}
	observing := *explainVar != "" || *traceJSON != "" || *metricsJSON != ""
	if observing && *mode != "pde" && *mode != "pfe" {
		return fmt.Errorf("-explain, -trace-json, and -metrics-json require -mode pde or pfe")
	}
	if observing && *passes != "" {
		return fmt.Errorf("-passes does not support -explain, -trace-json, or -metrics-json")
	}

	src, progName, err := readInput(paths)
	if err != nil {
		return err
	}
	if *name != "" {
		progName = *name
	}

	prog, err := parse(src, progName)
	if err != nil {
		return err
	}

	start := time.Now()
	opt, st, err := transform(prog)
	dur := time.Since(start)
	if err != nil && opt == nil {
		return err
	}
	degraded := err
	if degraded != nil {
		// A contained failure: opt is the degraded result (the best
		// partial program, or the input unchanged). Print it anyway
		// and exit non-zero afterwards.
		fmt.Fprintf(os.Stderr, "pdce: %s: %s\n", progName, message(degraded))
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "blocks: %d -> %d   statements: %d -> %d\n",
			prog.NumBlocks(), opt.NumBlocks(), prog.NumStatements(), opt.NumStatements())
		if st != nil {
			fmt.Fprintf(os.Stderr, "rounds: %d   eliminated: %d   inserted: %d   critical edges split: %d   growth w: %.2f\n",
				st.Rounds, st.Eliminated, st.Inserted, st.CriticalEdges, st.GrowthFactor())
			if st.Telemetry != nil {
				printTelemetrySummary(st.Telemetry)
			}
		}
	}
	if *verifyRun > 0 {
		if err := prog.Check(opt, *verifyRun); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Fprintf(os.Stderr, "verified over %d executions: outputs preserved, no execution impaired (savings: %.1f%%)\n",
			*verifyRun, 100*prog.Savings(opt, *verifyRun))
	}

	if *traceJSON != "" {
		if st == nil || st.Telemetry == nil {
			return fmt.Errorf("-trace-json: no trace collected")
		}
		if err := writeJSON(*traceJSON, st.Telemetry.Events); err != nil {
			return err
		}
	}
	if *metricsJSON != "" {
		if st == nil {
			return fmt.Errorf("-metrics-json: no stats collected")
		}
		if err := writeJSON(*metricsJSON, pdce.MakeReport(progName, modeOf(), *st, dur, degraded)); err != nil {
			return err
		}
	}
	if *explainVar != "" {
		// -explain replaces the program listing with the variable's
		// provenance journey.
		var tel *pdce.Telemetry
		if st != nil {
			tel = st.Telemetry
		}
		fmt.Print(pdce.FormatExplain(*explainVar, pdce.Explain(tel, *explainVar)))
		if degraded != nil {
			return fmt.Errorf("completed with a degraded result")
		}
		return nil
	}

	if *execSeed >= 0 {
		return execute(opt)
	}

	// A JSON payload on stdout replaces the program listing, so the
	// output stays pipeable into jq and friends.
	if *traceJSON != "-" && *metricsJSON != "-" {
		switch *format {
		case "listing":
			fmt.Print(opt.String())
		case "cfg":
			fmt.Print(opt.Format())
		case "dot":
			fmt.Print(opt.DOT())
		default:
			return fmt.Errorf("unknown -format %q (want listing, cfg, or dot)", *format)
		}
	}
	if degraded != nil {
		return fmt.Errorf("completed with a degraded result")
	}
	return nil
}

// modeOf maps the -mode flag to the pde/pfe Mode value; callers have
// already checked that the mode is one of the two.
func modeOf() pdce.Mode {
	if *mode == "pfe" {
		return pdce.Faint
	}
	return pdce.Dead
}

// writeJSON marshals v with indentation and writes it to path, where
// "-" means standard output.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printTelemetrySummary renders the telemetry section of -stats.
func printTelemetrySummary(t *pdce.Telemetry) {
	solverLine("delay", t.Delay)
	solverLine("dead", t.Dead)
	solverLine("faint", t.Faint)
	if n := len(t.Events); n > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d provenance events\n", n)
	}
}

func solverLine(analysis string, s pdce.SolverMetrics) {
	if s.Solves == 0 && s.SlotUpdates == 0 {
		return
	}
	line := fmt.Sprintf("%s: %d solves (%d full, %d incremental, %d cached)   visits: %d   pushes: %d   vector ops: %d",
		analysis, s.Solves, s.FullSolves, s.IncrementalSolves, s.CacheHits,
		s.NodeVisits, s.WorklistPushes, s.VectorOps)
	if s.SeedableNodes > 0 {
		line += fmt.Sprintf("   reuse: %.0f%%", 100*s.ReuseRate)
	}
	if s.SlotUpdates > 0 {
		line += fmt.Sprintf("   slot updates: %d", s.SlotUpdates)
	}
	fmt.Fprintln(os.Stderr, line)
}

// writeMemProfile dumps the post-GC heap profile to path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// execute runs the program under the interpreter and prints its
// observable behaviour.
func execute(prog *pdce.Program) error {
	store := map[string]int64{}
	if *inputs != "" {
		for _, kv := range strings.Split(*inputs, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad -input entry %q (want name=value)", kv)
			}
			var v int64
			if _, err := fmt.Sscanf(parts[1], "%d", &v); err != nil {
				return fmt.Errorf("bad -input value %q: %w", parts[1], err)
			}
			store[parts[0]] = v
		}
	}
	tr := prog.RunWithInput(uint64(*execSeed), *fuel, store)
	for _, v := range tr.Outputs {
		fmt.Println(v)
	}
	switch {
	case tr.Faulted:
		return fmt.Errorf("run-time error: %v", tr.Err)
	case !tr.Terminated:
		return fmt.Errorf("out of fuel after %d assignments", tr.AssignExecs)
	}
	fmt.Fprintf(os.Stderr, "terminated: %d assignment instances, %d term evaluations\n",
		tr.AssignExecs, tr.TermEvals)
	return nil
}

// expandArgs resolves the positional arguments to a flat file list: a
// directory argument stands for every regular file directly inside it,
// in name order.
func expandArgs(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			paths = append(paths, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		var inDir []string
		for _, e := range entries {
			if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
				continue
			}
			inDir = append(inDir, filepath.Join(arg, e.Name()))
		}
		if len(inDir) == 0 {
			return nil, fmt.Errorf("directory %s contains no input files", arg)
		}
		sort.Strings(inDir)
		paths = append(paths, inDir...)
	}
	return paths, nil
}

// runBatch optimizes several programs concurrently and prints each in
// input order. Every program is attempted even after failures; the
// combined error makes the process exit non-zero if any failed.
func runBatch(paths []string) error {
	if *mode != "pde" && *mode != "pfe" {
		return fmt.Errorf("batch mode supports -mode pde or pfe, not %q", *mode)
	}
	if *passes != "" || *execSeed >= 0 || *verifyRun > 0 || *trace {
		return fmt.Errorf("batch mode does not support -passes, -exec, -verify, or -trace")
	}
	if *explainVar != "" || *traceJSON != "" {
		return fmt.Errorf("batch mode does not support -explain or -trace-json (run them on a single file)")
	}

	o, cancel := pdeOptions()
	defer cancel()

	// Parse everything first; a parse failure must not stop the
	// other programs from being optimized.
	progs := make([]*pdce.Program, 0, len(paths))
	parseErrs := make(map[string]error)
	order := make([]string, 0, len(paths))
	for _, path := range paths {
		order = append(order, path)
		data, err := os.ReadFile(path)
		if err != nil {
			parseErrs[path] = err
			continue
		}
		prog, err := parse(string(data), progBase(path))
		if err != nil {
			parseErrs[path] = err
			continue
		}
		progs = append(progs, prog)
	}

	var tk pdce.BatchTracker
	if *teleAddr != "" {
		shutdown, addr, err := serveProgress(*teleAddr, &tk)
		if err != nil {
			return fmt.Errorf("-telemetry-addr: %w", err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "pdce: serving batch progress on http://%s/progress\n", addr)
	}

	begin := time.Now()
	results, metrics := pdce.OptimizeAllObserved(progs, o, *workers, &tk)
	elapsed := time.Since(begin)

	// JSON on stdout replaces the per-program listings, as in single
	// mode.
	listing := *metricsJSON != "-"
	var reports []pdce.Report

	failed := 0
	ri := 0
	for _, path := range order {
		if listing {
			fmt.Printf("==> %s\n", path)
		}
		if err, bad := parseErrs[path]; bad {
			failed++
			fmt.Fprintf(os.Stderr, "pdce: %s: %s\n", path, message(err))
			if *metricsJSON != "" {
				reports = append(reports, pdce.MakeReport(progBase(path), modeOf(), pdce.Stats{}, 0, err))
			}
			continue
		}
		prog := progs[ri]
		r := results[ri]
		ri++
		if *metricsJSON != "" {
			reports = append(reports, pdce.MakeReport(progBase(path), modeOf(), r.Stats, r.Duration, r.Err))
		}
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pdce: %s: %s\n", path, message(r.Err))
			if r.Program == nil {
				continue
			}
			// A contained failure left a degraded result (partial
			// optimization or the unchanged input): print it like any
			// other program, under the warning above.
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "%s: blocks: %d -> %d   statements: %d -> %d   rounds: %d   eliminated: %d   inserted: %d   worker: %d   %v\n",
				path, prog.NumBlocks(), r.Program.NumBlocks(),
				prog.NumStatements(), r.Program.NumStatements(),
				r.Stats.Rounds, r.Stats.Eliminated, r.Stats.Inserted,
				r.Worker, r.Duration.Round(time.Microsecond))
		}
		if !listing {
			continue
		}
		switch *format {
		case "listing":
			fmt.Print(r.Program.String())
		case "cfg":
			fmt.Print(r.Program.Format())
		case "dot":
			fmt.Print(r.Program.DOT())
		default:
			return fmt.Errorf("unknown -format %q (want listing, cfg, or dot)", *format)
		}
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "batch: %d jobs on %d workers in %v   p50 %v   p95 %v   max %v   failed: %d (panics: %d, interrupted: %d, skipped: %d)\n",
			metrics.Jobs, tk.Snapshot().Workers, elapsed.Round(time.Millisecond),
			time.Duration(metrics.P50NS).Round(time.Microsecond),
			time.Duration(metrics.P95NS).Round(time.Microsecond),
			time.Duration(metrics.MaxNS).Round(time.Microsecond),
			metrics.Failed, metrics.Panics, metrics.Interrupted, metrics.Skipped)
	}
	if *metricsJSON != "" {
		if err := writeJSON(*metricsJSON, pdce.BatchReport{Programs: reports, Batch: metrics}); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d programs failed", failed, len(order))
	}
	return nil
}

// serveProgress starts the batch telemetry endpoint: GET /progress on
// the given address returns the tracker's live snapshot as JSON. The
// caller invokes the returned shutdown function when the batch is
// done; it closes the listener as well as the server, because
// srv.Close only closes listeners Serve has already registered — when
// the batch finishes quickly, Close can win the race against the
// Serve goroutine and leave the port bound for the life of the
// process.
func serveProgress(addr string, tk *pdce.BatchTracker) (shutdown func(), laddr net.Addr, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(tk.Snapshot())
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() {
		srv.Close()
		ln.Close()
	}, ln.Addr(), nil
}

// pdeOptions assembles the pde/pfe options shared by single-file and
// batch mode from the flag set. The returned cancel function releases
// the -timeout context (a no-op when none is set) and must be called
// when the run is done.
func pdeOptions() (pdce.Options, context.CancelFunc) {
	m := pdce.Dead
	if *mode == "pfe" {
		m = pdce.Faint
	}
	o := pdce.Options{
		Mode:          m,
		MaxRounds:     *maxRounds,
		KeepSynthetic: *keepSynth,
		RoundBudget:   *roundBudget,
		Verify:        *verified,
		ReproDir:      *reproDir,
		Telemetry:     *stats || *metricsJSON != "",
		Trace:         *explainVar != "" || *traceJSON != "",
	}
	if *hot != "" {
		set := map[string]bool{}
		for _, l := range strings.Split(*hot, ",") {
			set[strings.TrimSpace(l)] = true
		}
		o.Hot = func(label string) bool { return set[label] }
	}
	cancel := context.CancelFunc(func() {})
	if *timeout > 0 {
		var ctx context.Context
		ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		o.Context = ctx
	}
	return o, cancel
}

// progBase derives a program name from a file path.
func progBase(path string) string {
	base := filepath.Base(path)
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func readInput(paths []string) (src, progName string, err error) {
	if len(paths) == 0 {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", "", err
		}
		return string(data), "stdin", nil
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		return "", "", err
	}
	return string(data), progBase(paths[0]), nil
}

// parse reads src in the -lang language ("auto" detects it) through
// the parser pdced and pdce.Pool use.
func parse(src, progName string) (*pdce.Program, error) {
	o := pdce.RequestOptions{Lang: *lang}
	if o.Lang == "auto" {
		o.Lang = ""
	}
	return o.Parse(progName, src)
}

// transform runs the -passes pipeline when one is given, and otherwise
// the -mode transformation: pde and pfe through SafeOptimize, with
// stats, and each baseline as a one-pass pipeline.
func transform(prog *pdce.Program) (*pdce.Program, *pdce.Stats, error) {
	if *passes != "" {
		opt, err := prog.Passes(strings.Split(*passes, ",")...)
		return opt, nil, err
	}
	switch *mode {
	case "pde", "pfe":
		o, cancel := pdeOptions()
		defer cancel()
		if *trace {
			o.Observe = func(round int, phase string, changed bool, snapshot string) {
				if !changed {
					fmt.Fprintf(os.Stderr, "-- round %d %s: no change\n", round, phase)
					return
				}
				fmt.Fprintf(os.Stderr, "-- round %d %s:\n%s", round, phase, snapshot)
			}
		}
		// SafeOptimize always hands back a usable program; on an error
		// the caller prints it and reports the degradation.
		opt, st, err := prog.SafeOptimize(o)
		return opt, &st, err
	case "none":
		return prog, nil, nil
	}
	opt, err := prog.Passes(*mode)
	return opt, nil, err
}
