// Command benchpaper runs the reproduction experiments of DESIGN.md's
// per-experiment index and prints markdown tables (the source material
// of EXPERIMENTS.md):
//
//	F   — per-figure reproduction summary (Figures 1–13)
//	C1  — pde wall-clock scaling on structured programs (Section 6's
//	      expected ~quadratic behaviour; near-linear in practice)
//	C2  — pfe scaling and the pfe/pde cost ratio
//	C3  — code growth factor w (Section 6.2: O(b) worst case, O(1)
//	      expected in practice)
//	C4  — driver iteration count r (Section 6.3: conjectured ~linear,
//	      small constants in practice)
//	C5  — optimization power: dynamic assignment savings of pde/pfe
//	      against classic dce/fce, SSA dce, def-use dce, and a
//	      truncated single-round pde
//	C6  — safety ablation: replacing the delayability product with a
//	      sum (eager, Briggs/Cooper-style sinking) impairs or breaks
//	      executions; the paper's algorithm never does
//	C7  — assignment hoisting cannot eliminate partial deadness
//	C8  — liveness pressure before/after pde
//	C9  — incremental vs. from-scratch driver cost, and batch
//	      throughput of the concurrent optimization pipeline
//
// Serving is not measured here. cmd/pdcebench's serve-warm and
// serve-cold workloads measure its speed; TestPoolFleetDrill,
// TestAffinityStabilityUnderChurn and internal/server's
// TestStoreFleetRestart check its guarantees. The recorded runs of the
// retired serving experiments C10–C12 still render as history.
//
// The experiment matrix — sweeps, seeds, repeats, workload knobs per
// experiment — is declared in experiments.json (see
// docs/EXPERIMENTS-HOWTO.md); a missing file falls back to built-in
// defaults matching the historical hardcoded sweeps. Each invocation
// is one run: every selected experiment executes its configured number
// of repeats, per-repeat logs land in paper_runs/<run-id>/, and the
// run (raw per-repeat records plus variance-aware aggregates) is
// appended to the BENCH_paper.json history named by -json, which
// cmd/benchreport turns into the reproduction docs. The clock-free
// numbers of one quick run of F and C1–C8 are pinned by
// TestPaperClaimsGolden.
//
// Usage:
//
//	benchpaper                          # run everything
//	benchpaper -exp C1,C9               # a subset
//	benchpaper -quick                   # smaller sweeps (CI-friendly)
//	benchpaper -json BENCH_paper.json   # append the run to the history
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pdce/internal/analysis"
	"pdce/internal/baseline"
	"pdce/internal/batch"
	"pdce/internal/bench"
	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/figures"
	"pdce/internal/hoist"
	"pdce/internal/obs"
	"pdce/internal/progen"
	"pdce/internal/ssa"
	"pdce/internal/verify"
)

var (
	expFlag     = flag.String("exp", "all", "comma-separated experiments to run: F, C1, C2, C3, C4, C5, C6, C7, C8, C9, all")
	quick       = flag.Bool("quick", false, "smaller sweeps")
	seedsFlag   = flag.Int("seeds", 0, "random seeds per configuration (0 = experiments.json)")
	repeatsFlag = flag.Int("repeats", 0, "repeats per experiment (0 = experiments.json)")
	configPath  = flag.String("config", "experiments.json", "experiment matrix config (missing file = built-in defaults)")
	jsonOut     = flag.String("json", "", "append this run to the BENCH_paper.json history at this path ('-' = print the run to stdout)")
	outRoot     = flag.String("out", "paper_runs", "root directory for per-run logs and run.json ('' = keep nothing on disk)")
	runIDFlag   = flag.String("run-id", "", "run id (default: UTC timestamp)")
)

// Run-loop state shared with the experiment functions: the loaded
// matrix, the experiment currently executing, and its repeat index.
var (
	matrix  *bench.Matrix
	cur     *bench.ExpConfig
	curRep  int
	records []obs.BenchPoint
)

// record captures one data point of the current repeat. d is the
// measured wall time where the experiment has one (0 otherwise).
func record(exp, name string, n int, d time.Duration, metrics map[string]float64) {
	records = append(records, obs.BenchPoint{
		Exp: exp, Name: name, N: n, Rep: curRep, NSPerOp: int64(d), Metrics: metrics,
	})
}

// experiment binds a matrix id to its runner; registry order is the
// execution and documentation order.
type experiment struct {
	id string
	fn func() error
}

func registry() []experiment {
	return []experiment{
		{"F", expFigures},
		{"C1", func() error { return expScaling(core.ModeDead, "C1", "pde") }},
		{"C2", expPFERatio},
		{"C3", expGrowth},
		{"C4", expRounds},
		{"C5", expPower},
		{"C6", expSafety},
		{"C7", expHoist},
		{"C8", expPressure},
		{"C9", expBatch},
	}
}

// selected resolves -exp into the set of experiment ids.
func selected() (map[string]bool, error) {
	known := map[string]string{}
	for _, e := range registry() {
		known[strings.ToLower(e.id)] = e.id
	}
	want := map[string]bool{}
	if *expFlag == "all" {
		for _, id := range known {
			want[id] = true
		}
		return want, nil
	}
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		canon, ok := known[strings.ToLower(id)]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		want[canon] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return want, nil
}

func main() {
	flag.Parse()
	var err error
	matrix, err = bench.LoadMatrix(*configPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpaper: %v\n", err)
		os.Exit(1)
	}
	want, err := selected()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchpaper: %v\n", err)
		os.Exit(1)
	}
	runID := *runIDFlag
	if runID == "" {
		runID = bench.RunStamp(time.Now())
	}
	runDir := ""
	if *outRoot != "" {
		runDir = filepath.Join(*outRoot, runID)
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchpaper: %v\n", err)
			os.Exit(1)
		}
	}
	// A failing experiment does not abort the process: its partial
	// tables and records stay, the failure is reported, and the
	// remaining experiments still run. The single exit path below
	// turns any failure into a non-zero status.
	var failed []string
	for _, e := range registry() {
		if !want[e.id] {
			continue
		}
		cur = matrix.Exp(e.id)
		reps := nrepeats()
		for rep := 0; rep < reps; rep++ {
			curRep = rep
			logPath := ""
			if runDir != "" {
				logPath = filepath.Join(runDir, fmt.Sprintf("%s_r%02d.log", e.id, rep))
			}
			// With -json - the run record owns stdout; the tables still
			// land in the per-repeat logs when -out is set.
			if err := runCaptured(logPath, rep == 0 && *jsonOut != "-", e.fn); err != nil {
				failed = append(failed, e.id)
				fmt.Fprintf(os.Stderr, "benchpaper: %s (repeat %d): %v (continuing)\n", e.id, rep, err)
				break
			}
		}
	}
	run := buildRun(runID, failed)
	if runDir != "" {
		if err := writeRunJSON(filepath.Join(runDir, "run.json"), run); err != nil {
			fmt.Fprintf(os.Stderr, "benchpaper: run.json: %v\n", err)
			os.Exit(1)
		}
	}
	switch {
	case *jsonOut == "-":
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchpaper: -json: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
	case *jsonOut != "":
		// Partial records from a failed experiment are still appended;
		// the exit status reports the failure either way.
		if err := obs.AppendBenchRun(*jsonOut, run); err != nil {
			fmt.Fprintf(os.Stderr, "benchpaper: -json: %v\n", err)
			os.Exit(1)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchpaper: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}

// buildRun assembles this invocation's BenchRun: resolved config,
// every raw point, and the variance aggregates across repeats.
func buildRun(runID string, failed []string) obs.BenchRun {
	kind := "full"
	if *quick {
		kind = "quick"
	}
	if records == nil {
		records = []obs.BenchPoint{}
	}
	run := obs.BenchRun{
		RunID:      runID,
		Kind:       kind,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Quick:      *quick,
		Seeds:      globalSeeds(),
		Repeats:    globalRepeats(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Records:    records,
		Aggregates: obs.AggregateBench(records),
	}
	if len(failed) > 0 {
		run.Note = "failed: " + strings.Join(failed, ", ")
	}
	for _, p := range records {
		if len(run.Exps) == 0 || run.Exps[len(run.Exps)-1] != p.Exp {
			run.Exps = append(run.Exps, p.Exp)
		}
	}
	return run
}

func writeRunJSON(path string, run obs.BenchRun) error {
	data, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runCaptured runs one experiment repeat with os.Stdout redirected
// into its per-repeat log. The first repeat's output is echoed to the
// real stdout afterwards, so the interactive table flow is unchanged;
// later repeats only measure.
func runCaptured(logPath string, echo bool, f func() error) error {
	if logPath == "" {
		if echo {
			return f()
		}
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			return f()
		}
		old := os.Stdout
		os.Stdout = devnull
		runErr := f()
		os.Stdout = old
		devnull.Close()
		return runErr
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	old := os.Stdout
	os.Stdout = logf
	runErr := f()
	os.Stdout = old
	closeErr := logf.Close()
	if echo {
		if data, err := os.ReadFile(logPath); err == nil {
			os.Stdout.Write(data)
		}
	}
	if runErr != nil {
		return runErr
	}
	return closeErr
}

// sizes is the current experiment's program-size sweep.
func sizes() []int {
	return matrix.Sizes(cur, *quick)
}

// nseeds is the current experiment's seeds-per-configuration count.
func nseeds() int {
	if *seedsFlag > 0 {
		return *seedsFlag
	}
	return matrix.Seeds(cur)
}

// nrepeats is how many times the current experiment runs this
// invocation.
func nrepeats() int {
	if *repeatsFlag > 0 {
		return *repeatsFlag
	}
	return matrix.Repeats(cur)
}

// globalSeeds/globalRepeats are the run-level defaults recorded in the
// run header (individual experiments may override via the matrix).
func globalSeeds() int {
	if *seedsFlag > 0 {
		return *seedsFlag
	}
	return matrix.Defaults.Seeds
}

func globalRepeats() int {
	if *repeatsFlag > 0 {
		return *repeatsFlag
	}
	if matrix.Defaults.Repeats > 0 {
		return matrix.Defaults.Repeats
	}
	return 1
}

// cfgInt resolves a workload knob of the current experiment against
// its built-in full/quick defaults.
func cfgInt(key string, full, quickDef int) int {
	return cur.Param(key, *quick, full, quickDef)
}

// --- F: figures -------------------------------------------------------

func expFigures() error {
	fmt.Println("## F — Figures 1–13: paper transformation vs. implementation")
	fmt.Println()
	fmt.Println("| figure | demonstrates | result | rounds | eliminated | verified |")
	fmt.Println("|--------|--------------|--------|-------:|-----------:|----------|")
	for _, f := range figures.All() {
		want := f.PDEGraph()
		mode := core.ModeDead
		if f.ExpectedPDE == "" && f.ExpectedPFE != "" {
			want, mode = f.PFEGraph(), core.ModeFaint
		}
		if want == nil {
			fmt.Printf("| %d | %s | block-local (analysis tests) | – | – | – |\n", f.Num, f.Title)
			continue
		}
		in := f.Graph()
		got, st, err := core.Transform(in, core.Options{Mode: mode})
		status := "matches paper"
		if err != nil {
			status = "ERROR: " + err.Error()
		} else if len(cfg.Diff(got, want)) > 0 {
			status = "MISMATCH"
		}
		rep := verify.CheckTransformed(in, got, verify.Options{Seeds: 64})
		verified := "48/48 replays ok"
		if !rep.OK() {
			verified = "FAILED: " + rep.Violations[0]
		} else {
			verified = fmt.Sprintf("%d replays ok", rep.Executions)
		}
		fmt.Printf("| %d | %s | %s | %d | %d | %s |\n", f.Num, f.Title, status, st.Rounds, st.Eliminated, verified)
		ok := 0.0
		if status == "matches paper" && rep.OK() {
			ok = 1
		}
		record("F", fmt.Sprintf("figure-%d", f.Num), 0, 0, map[string]float64{
			"ok": ok, "rounds": float64(st.Rounds), "eliminated": float64(st.Eliminated),
		})
	}
	fmt.Println()
	return nil
}

// --- C1/C2: time scaling ----------------------------------------------

func timeTransform(g *cfg.Graph, mode core.Mode) (time.Duration, core.Stats, error) {
	return timeTransformOpt(g, core.Options{Mode: mode})
}

// fitExponent estimates k in time ~ n^k by least squares on log-log.
func fitExponent(ns []int, ts []time.Duration) float64 {
	var sx, sy, sxx, sxy float64
	m := float64(len(ns))
	for i := range ns {
		x := math.Log(float64(ns[i]))
		y := math.Log(float64(ts[i].Nanoseconds()))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (m*sxy - sx*sy) / (m*sxx - sx*sx)
}

func expScaling(mode core.Mode, id, label string) error {
	fmt.Printf("## %s — %s wall-clock scaling on structured programs\n\n", id, label)
	fmt.Println("| n (stmts) | blocks | time (median over seeds) | rounds | time/n |")
	fmt.Println("|----------:|-------:|-------------------------:|-------:|-------:|")
	var ns []int
	var ts []time.Duration
	for _, n := range sizes() {
		var durs []time.Duration
		var rounds int
		blocks := 0
		for s := 0; s < nseeds(); s++ {
			g := progen.Generate(progen.Params{Seed: int64(s), Stmts: n})
			blocks = g.NumNodes()
			d, st, err := timeTransform(g, mode)
			if err != nil {
				return fmt.Errorf("%s n=%d seed=%d: %w", label, n, s, err)
			}
			durs = append(durs, d)
			rounds += st.Rounds
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		med := durs[len(durs)/2]
		ns = append(ns, n)
		ts = append(ts, med)
		fmt.Printf("| %d | %d | %v | %.1f | %.1f ns |\n",
			n, blocks, med.Round(time.Microsecond), float64(rounds)/float64(nseeds()),
			float64(med.Nanoseconds())/float64(n))
		record(id, label+"-scaling", n, med, map[string]float64{
			"blocks": float64(blocks), "rounds_mean": float64(rounds) / float64(nseeds()),
		})
	}
	exp := fitExponent(ns, ts)
	fmt.Printf("\nfitted exponent: time ~ n^%.2f (paper bound for realistic structured programs: O(n^2))\n\n", exp)
	// A fit over fewer than three sizes has no residual — it is not a
	// measurement — so such a sweep records no exponent.
	if len(ns) >= 3 {
		record(id, label+"-fit", 0, 0, map[string]float64{"exponent": exp})
	}
	return nil
}

func expPFERatio() error {
	if err := expScaling(core.ModeFaint, "C2", "pfe"); err != nil {
		return err
	}
	fmt.Println("### pfe/pde cost ratio")
	fmt.Println()
	fmt.Println("| n (stmts) | pde | pfe | ratio |")
	fmt.Println("|----------:|----:|----:|------:|")
	for _, n := range sizes() {
		g := progen.Generate(progen.Params{Seed: 1, Stmts: n})
		dPDE, _, err := timeTransform(g, core.ModeDead)
		if err != nil {
			return fmt.Errorf("pde n=%d: %w", n, err)
		}
		dPFE, _, err := timeTransform(g, core.ModeFaint)
		if err != nil {
			return fmt.Errorf("pfe n=%d: %w", n, err)
		}
		fmt.Printf("| %d | %v | %v | %.2f |\n",
			n, dPDE.Round(time.Microsecond), dPFE.Round(time.Microsecond),
			float64(dPFE)/float64(dPDE))
		record("C2", "pfe-pde-ratio", n, dPFE, map[string]float64{"ratio": float64(dPFE) / float64(dPDE)})
	}
	fmt.Println()
	return nil
}

// --- C3: growth factor w ----------------------------------------------

func expGrowth() error {
	fmt.Println("## C3 — code growth factor w = peak/original statements (§6.2)")
	fmt.Println()
	fmt.Println("| n (stmts) | w (mean) | w (max) | final/original |")
	fmt.Println("|----------:|---------:|--------:|---------------:|")
	for _, n := range sizes() {
		var sum, max, shrink float64
		for s := 0; s < nseeds(); s++ {
			g := progen.Generate(progen.Params{Seed: int64(s), Stmts: n})
			_, st, err := core.PDE(g)
			if err != nil {
				return fmt.Errorf("pde n=%d seed=%d: %w", n, s, err)
			}
			w := st.GrowthFactor()
			sum += w
			if w > max {
				max = w
			}
			shrink += float64(st.FinalStmts) / float64(st.OriginalStmts)
		}
		fmt.Printf("| %d | %.3f | %.3f | %.3f |\n",
			n, sum/float64(nseeds()), max, shrink/float64(nseeds()))
		record("C3", "growth", n, 0, map[string]float64{
			"w_mean": sum / float64(nseeds()), "w_max": max, "shrink": shrink / float64(nseeds()),
		})
	}
	fmt.Println()
	fmt.Println("paper: w is O(b) in the worst case but expected O(1) in practice — confirmed if the columns stay near 1.")
	fmt.Println()
	return nil
}

// --- C4: iteration count r --------------------------------------------

func expRounds() error {
	fmt.Println("## C4 — driver iterations r until stabilization (§6.3)")
	fmt.Println()
	fmt.Println("| n (stmts) | r pde (mean) | r pde (max) | r pfe (mean) | r/n |")
	fmt.Println("|----------:|-------------:|------------:|-------------:|----:|")
	for _, n := range sizes() {
		var sumD, maxD, sumF float64
		for s := 0; s < nseeds(); s++ {
			g := progen.Generate(progen.Params{Seed: int64(s), Stmts: n, LoopProb: 0.15, BranchProb: 0.25})
			_, stD, err := core.PDE(g)
			if err != nil {
				return fmt.Errorf("pde n=%d seed=%d: %w", n, s, err)
			}
			_, stF, err := core.PFE(g)
			if err != nil {
				return fmt.Errorf("pfe n=%d seed=%d: %w", n, s, err)
			}
			sumD += float64(stD.Rounds)
			if float64(stD.Rounds) > maxD {
				maxD = float64(stD.Rounds)
			}
			sumF += float64(stF.Rounds)
		}
		fmt.Printf("| %d | %.1f | %.0f | %.1f | %.4f |\n",
			n, sumD/float64(nseeds()), maxD, sumF/float64(nseeds()),
			sumD/float64(nseeds())/float64(n))
		record("C4", "rounds", n, 0, map[string]float64{
			"r_pde_mean": sumD / float64(nseeds()), "r_pde_max": maxD, "r_pfe_mean": sumF / float64(nseeds()),
		})
	}
	fmt.Println()
	fmt.Println("paper: r is at most quadratic, conjectured linear; small constants here support the conjecture.")
	fmt.Println()
	return nil
}

// --- C5: optimization power -------------------------------------------

func expPower() error {
	fmt.Println("## C5 — optimization power: dynamic assignment savings vs. baselines")
	fmt.Println()
	fmt.Println("Savings = fraction of executed assignment instances removed,")
	fmt.Println("sampled over replayed executions (higher is better).")
	fmt.Println()
	fmt.Println("| workload | dce | fce | du-dce | ssa-dce | pde 1-round | pde | pfe |")
	fmt.Println("|----------|----:|----:|-------:|--------:|------------:|----:|----:|")

	workloads := []struct {
		name string
		gen  func(seed int64) *cfg.Graph
	}{
		{"structured, dense vars", func(s int64) *cfg.Graph {
			return progen.Generate(progen.Params{Seed: s, Stmts: 120, Vars: 4, BranchProb: 0.3})
		}},
		{"structured, loops", func(s int64) *cfg.Graph {
			return progen.Generate(progen.Params{Seed: s, Stmts: 120, Vars: 6, LoopProb: 0.2})
		}},
		{"irreducible", func(s int64) *cfg.Graph {
			return progen.Generate(progen.Params{Seed: s, Stmts: 120, Vars: 6, Irreducible: true})
		}},
		{"paper figures (1,3,5,7,8,10,11,12)", nil},
	}

	for _, w := range workloads {
		var graphs []*cfg.Graph
		if w.gen == nil {
			for _, f := range figures.All() {
				if f.ExpectedPDE != "" {
					graphs = append(graphs, f.Graph())
				}
			}
		} else {
			for s := 0; s < nseeds(); s++ {
				graphs = append(graphs, w.gen(int64(s)))
			}
		}
		var sav [7]float64
		for _, g := range graphs {
			results := make([]*cfg.Graph, 7)
			results[0] = baseline.IteratedDCE(g).Graph
			results[1] = baseline.IteratedFCE(g).Graph
			results[2] = baseline.DefUseDCE(g).Graph
			ssaG, _ := ssa.Eliminate(g)
			results[3] = ssaG
			sr, err := baseline.SingleRound(g, core.ModeDead)
			if err != nil {
				return fmt.Errorf("%s single-round: %w", w.name, err)
			}
			results[4] = sr.Graph
			pdeG, _, err := core.PDE(g)
			if err != nil {
				return fmt.Errorf("%s pde: %w", w.name, err)
			}
			results[5] = pdeG
			pfeG, _, err := core.PFE(g)
			if err != nil {
				return fmt.Errorf("%s pfe: %w", w.name, err)
			}
			results[6] = pfeG
			for i, r := range results {
				sav[i] += verify.MeasureImprovement(g, r, 32, 768).Savings()
			}
		}
		k := float64(len(graphs))
		fmt.Printf("| %s | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
			w.name, 100*sav[0]/k, 100*sav[1]/k, 100*sav[2]/k, 100*sav[3]/k,
			100*sav[4]/k, 100*sav[5]/k, 100*sav[6]/k)
		record("C5", w.name, 0, 0, map[string]float64{
			"dce": sav[0] / k, "fce": sav[1] / k, "dudce": sav[2] / k, "ssadce": sav[3] / k,
			"pde1": sav[4] / k, "pde": sav[5] / k, "pfe": sav[6] / k,
		})
	}
	fmt.Println()
	return nil
}

// --- C6: safety ablation ----------------------------------------------

func expSafety() error {
	fmt.Println("## C6 — safety ablation: all-paths (paper) vs. some-path (eager) sinking")
	fmt.Println()
	fmt.Println("Replaying executions against the transformed program; a violation is a")
	fmt.Println("changed output or an execution running *more* instances of a pattern.")
	fmt.Println()
	fmt.Println("| workload | pde violations | union-sink violations | replayed runs per variant |")
	fmt.Println("|----------|---------------:|----------------------:|--------------------------:|")
	configs := []struct {
		name string
		p    progen.Params
	}{
		{"loop-heavy structured", progen.Params{Stmts: 80, Vars: 5, LoopProb: 0.3, BranchProb: 0.2}},
		{"irreducible", progen.Params{Stmts: 80, Vars: 5, Irreducible: true}},
		{"figure 5 (paper)", progen.Params{}},
	}
	for _, c := range configs {
		var graphs []*cfg.Graph
		if c.name == "figure 5 (paper)" {
			f, _ := figures.ByNum(5)
			graphs = []*cfg.Graph{f.Graph()}
		} else {
			for s := 0; s < nseeds()*2; s++ {
				p := c.p
				p.Seed = int64(s)
				graphs = append(graphs, progen.Generate(p))
			}
		}
		pdeViol, unionViol, unionRuns := 0, 0, 0
		for _, g := range graphs {
			pdeG, _, err := core.PDE(g)
			if err != nil {
				return fmt.Errorf("%s pde: %w", c.name, err)
			}
			rep := verify.CheckTransformed(g, pdeG, verify.Options{Seeds: 32, Fuel: 512})
			pdeViol += len(rep.Violations)

			ug := baseline.UnionSinkOnce(g)
			urep := verify.CheckTransformed(g, ug.Graph, verify.Options{Seeds: 32, Fuel: 512})
			unionViol += len(urep.Violations)
			unionRuns += urep.Executions
		}
		fmt.Printf("| %s | %d | %d | %d |\n", c.name, pdeViol, unionViol, unionRuns)
		record("C6", c.name, 0, 0, map[string]float64{
			"pde_violations": float64(pdeViol), "union_violations": float64(unionViol),
		})
	}
	fmt.Println("\npaper's guarantee: the pde column must be all zeros; the union ablation")
	fmt.Println("demonstrates why the product confluence (justified insertions) is essential.")
	fmt.Println()
	return nil
}

// --- C7: hoisting direction ---------------------------------------------

func expHoist() error {
	fmt.Println("## C7 — assignment hoisting ([9], Related Work) cannot eliminate partial deadness")
	fmt.Println()
	fmt.Println("Dynamic assignment savings of hoisting (must be exactly 0, the")
	fmt.Println("transformation is cost-neutral by construction) against pde:")
	fmt.Println()
	fmt.Println("| workload | hoist savings | pde savings | hoist violations |")
	fmt.Println("|----------|--------------:|------------:|-----------------:|")
	workloads := []struct {
		name   string
		graphs []*cfg.Graph
	}{
		{"paper figures", nil},
		{"structured random", nil},
	}
	for _, f := range figures.All() {
		if f.ExpectedPDE != "" {
			workloads[0].graphs = append(workloads[0].graphs, f.Graph())
		}
	}
	for s := 0; s < nseeds(); s++ {
		workloads[1].graphs = append(workloads[1].graphs,
			progen.Generate(progen.Params{Seed: int64(s), Stmts: 100, Vars: 5, BranchProb: 0.3}))
	}
	for _, w := range workloads {
		var sHoist, sPDE float64
		violations := 0
		for _, g := range w.graphs {
			h, _, err := hoist.Optimize(g)
			if err != nil {
				return fmt.Errorf("%s hoist: %w", w.name, err)
			}
			rep := verify.CheckTransformed(g, h, verify.Options{Seeds: 32, Fuel: 512})
			violations += len(rep.Violations)
			sHoist += verify.MeasureImprovement(g, h, 32, 512).Savings()
			p, _, err := core.PDE(g)
			if err != nil {
				return fmt.Errorf("%s pde: %w", w.name, err)
			}
			sPDE += verify.MeasureImprovement(g, p, 32, 512).Savings()
		}
		k := float64(len(w.graphs))
		fmt.Printf("| %s | %.1f%% | %.1f%% | %d |\n", w.name, 100*sHoist/k, 100*sPDE/k, violations)
		record("C7", w.name, 0, 0, map[string]float64{
			"hoist_savings": sHoist / k, "pde_savings": sPDE / k, "violations": float64(violations),
		})
	}
	fmt.Println()
	fmt.Println("paper: hoisting-based assignment motion \"does not allow any elimination")
	fmt.Println("of partially dead code\" — the hoist column staying at 0.0% while pde")
	fmt.Println("saves confirms it; 0 violations confirm hoisting is still admissible motion.")
	fmt.Println()
	return nil
}

// --- C9: incremental driver & batch throughput ---------------------------

func expBatch() error {
	fmt.Println("## C9 — incremental driver and batch-optimization throughput")
	fmt.Println()
	fmt.Println("### incremental vs. from-scratch driver (identical outputs)")
	fmt.Println()
	fmt.Println("The incremental driver fixes the variable/pattern universes once,")
	fmt.Println("reuses solver storage, and re-seeds each round's fixpoint from the")
	fmt.Println("previous solution plus the blocks the last round changed.")
	fmt.Println()
	fmt.Println("| n (stmts) | from-scratch | incremental | speedup |")
	fmt.Println("|----------:|-------------:|------------:|--------:|")
	for _, n := range sizes() {
		g := progen.Generate(progen.Params{Seed: 1, Stmts: n})
		ref, _, err := timeTransformOpt(g, core.Options{Mode: core.ModeDead, NoIncremental: true})
		if err != nil {
			return fmt.Errorf("from-scratch n=%d: %w", n, err)
		}
		inc, _, err := timeTransformOpt(g, core.Options{Mode: core.ModeDead})
		if err != nil {
			return fmt.Errorf("incremental n=%d: %w", n, err)
		}
		fmt.Printf("| %d | %v | %v | %.1fx |\n",
			n, ref.Round(time.Microsecond), inc.Round(time.Microsecond),
			float64(ref)/float64(inc))
		record("C9", "incremental", n, inc, map[string]float64{"speedup": float64(ref) / float64(inc)})
	}
	fmt.Println()

	fmt.Println("### batch throughput (worker pool over independent programs)")
	fmt.Println()
	nProgs := cfgInt("programs", 32, 12)
	stmts := cfgInt("stmts", 256, 128)
	jobs := make([]batch.Job, nProgs)
	for i := range jobs {
		jobs[i] = batch.Job{
			Name:    fmt.Sprintf("p%02d", i),
			Graph:   progen.Generate(progen.Params{Seed: int64(i), Stmts: stmts}),
			Options: core.Options{Mode: core.ModeDead},
		}
	}
	fmt.Printf("%d programs x %d statements, GOMAXPROCS=%d\n\n", nProgs, stmts, runtime.GOMAXPROCS(0))
	fmt.Println("| workers | wall time | programs/s | speedup vs 1 |")
	fmt.Println("|--------:|----------:|-----------:|-------------:|")
	var workerCounts []int
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		dup := false
		for _, seen := range workerCounts {
			dup = dup || seen == w
		}
		if !dup {
			workerCounts = append(workerCounts, w)
		}
	}
	var base time.Duration
	for _, w := range workerCounts {
		start := time.Now()
		results := batch.Run(jobs, w)
		d := time.Since(start)
		if s := batch.Summarize(results); s.Failed > 0 {
			return fmt.Errorf("workers=%d: %d batch jobs failed", w, s.Failed)
		}
		if base == 0 {
			base = d
		}
		fmt.Printf("| %d | %v | %.1f | %.2fx |\n",
			w, d.Round(time.Millisecond),
			float64(nProgs)/d.Seconds(), float64(base)/float64(d))
		record("C9", "batch-throughput", w, d, map[string]float64{
			"programs_per_s": float64(nProgs) / d.Seconds(), "speedup": float64(base) / float64(d),
		})
	}
	fmt.Println()
	fmt.Println("speedup tracks available cores; on a single-core host the pool")
	fmt.Println("degenerates gracefully to sequential cost.")
	fmt.Println()
	return nil
}

// timeTransformOpt is timeTransform with explicit driver options.
func timeTransformOpt(g *cfg.Graph, opt core.Options) (time.Duration, core.Stats, error) {
	best := time.Duration(math.MaxInt64)
	var st core.Stats
	reps := 3
	if g.NumStmts() > 1500 {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		start := time.Now()
		_, s, err := core.Transform(g, opt)
		d := time.Since(start)
		if err != nil {
			return 0, core.Stats{}, err
		}
		if d < best {
			best, st = d, s
		}
	}
	return best, st, nil
}

// --- C8: liveness pressure ------------------------------------------------

func expPressure() error {
	fmt.Println("## C8 — liveness pressure (register-pressure proxy) before/after pde")
	fmt.Println()
	fmt.Println("The paper's delayability descends from lcm's, whose purpose was")
	fmt.Println("minimizing temporary lifetimes. pde optimizes executed work, not")
	fmt.Println("pressure: sinking shortens the target's range but stretches the")
	fmt.Println("operands' ranges, so both directions occur.")
	fmt.Println()
	fmt.Println("| workload | mean before | mean after | peak before | peak after |")
	fmt.Println("|----------|------------:|-----------:|------------:|-----------:|")
	configs := []struct {
		name string
		p    progen.Params
	}{
		{"structured, dense vars", progen.Params{Stmts: 120, Vars: 4, BranchProb: 0.3}},
		{"structured, many vars", progen.Params{Stmts: 120, Vars: 16, BranchProb: 0.3}},
		{"irreducible", progen.Params{Stmts: 120, Vars: 8, Irreducible: true}},
	}
	for _, c := range configs {
		var mb, ma float64
		pb, pa := 0, 0
		for s := 0; s < nseeds(); s++ {
			params := c.p
			params.Seed = int64(s)
			g := progen.Generate(params)
			opt, _, err := core.PDE(g)
			if err != nil {
				return fmt.Errorf("%s seed=%d: %w", c.name, s, err)
			}
			before := analysis.Pressure(g)
			after := analysis.Pressure(opt)
			mb += before.Mean()
			ma += after.Mean()
			if before.Max > pb {
				pb = before.Max
			}
			if after.Max > pa {
				pa = after.Max
			}
		}
		k := float64(nseeds())
		fmt.Printf("| %s | %.2f | %.2f | %d | %d |\n", c.name, mb/k, ma/k, pb, pa)
		record("C8", c.name, 0, 0, map[string]float64{
			"mean_before": mb / k, "mean_after": ma / k,
			"peak_before": float64(pb), "peak_after": float64(pa),
		})
	}
	fmt.Println()
	return nil
}
