// Command pdcebench is the repository benchmark. It measures the
// optimizer end to end on four workloads (see the table in
// workloads.go): two where one library caller runs ParseCFG → Optimize
// → Format, and two where one HTTP client drives the pdced handler on a
// loopback listener. A traced run (-trace 1) breaks each workload's
// time into the layers it passes through.
//
// Build and run it from the root of a checkout with run.sh, which
// keeps every build output under .bench_build/:
//
//	bash cmd/pdcebench/run.sh -workload solve-large -seed 1 -seconds 24 -trace 0
//	bash cmd/pdcebench/run.sh -seed 1                   # every workload, each in a child process
//	bash cmd/pdcebench/run.sh -seed 1 -trace 1          # per-layer metrics and tracing overhead
//	bash cmd/pdcebench/run.sh -seed 1 -runs 5           # median and quartiles over 5 runs
//
// With -workload and -runs 1 the workload runs in this process, and
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Otherwise each run of each
// selected workload is a fresh child process. The exit status is
// non-zero when any output was wrong.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run in this process (empty = every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same programs")
	seconds := flag.Float64("seconds", 24, "length of the measured phase of one run, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	runs := flag.Int("runs", 1, "runs per workload, each in a child process; prints the median and quartiles")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *runs < 1 || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		seed:      *seed,
		duration:  time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		setups:    6,
		checkRuns: 4,
		spansDir:  ".bench_build",
	}
	selected := workloads
	if *name != "" {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "pdcebench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		if *runs == 1 {
			os.Exit(runOne(os.Stdout, w, cfg))
		}
		selected = []workload{w}
	}
	os.Exit(runChildren(selected, cfg, *runs))
}

// gomaxprocs is the GOMAXPROCS every run is pinned to. Every workload
// has one caller, and the library optimizes a program on its caller's
// goroutine, so a second processor only lets the garbage collector mark,
// or the server answer, on another vCPU of a host shared with other
// guests. On the 2-vCPU host the benchmark was defined on, that made a
// library caller about 20% slower and its runs noisier.
const gomaxprocs = 1

// report is the JSON object printed as the last line of a run.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its provenance,
// its metrics one per line, and the report. It returns the exit status.
func runOne(out io.Writer, w workload, cfg runConfig) int {
	runtime.GOMAXPROCS(gomaxprocs)
	r, t, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdcebench: %s: %v\n", w.name, err)
		return 1
	}
	rep := buildReport(r, t, cfg)
	fmt.Fprintf(out, "provenance workload=%s seed=%d gomaxprocs=%d nproc=%d go=%s programs=%d stmts=%d ops=%d inputs_sha256=%s\n",
		w.name, cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), w.programs, w.stmts, r.ops, r.digest)
	fmt.Fprintf(out, "%s in milliseconds: latency_best_p50 %g, reference kernel best %g\n",
		w.name, nearestRank(r.best, 50), r.refMs)
	fmt.Fprintf(out, "%s error_rate %g ratio (%d of %d failed)\n", w.name,
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	for _, d := range metricSet(cfg.traced) {
		fmt.Fprintf(out, "%s %s %g %s\n", w.name, d.name, rep.Metrics[d.name].Value, d.unit)
	}
	if t != nil {
		path, err := t.writeSpans(cfg.spansDir, w.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdcebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "pdcebench: %d spans written to %s\n", len(t.spans), path)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdcebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func metricSet(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func buildReport(r *result, t *tracer, cfg runConfig) report {
	var m map[string]float64
	if t != nil {
		m = t.layerMetrics(r.ops, r.hits, r.sheds, r.rt, r.bestP50Rel())
	} else {
		m = r.endToEnd()
	}
	rep := report{
		Correct:   r.failed == 0 && r.ops > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range metricSet(cfg.traced) {
		rep.Metrics[d.name] = value{m[d.name], d.unit}
	}
	return rep
}

// runChildren runs every selected workload runs times, each run a
// fresh child process of this binary, and prints each metric's median
// and quartiles across the runs. With cfg.traced every run is made
// twice, untraced and traced, and the tracing overhead is the relative
// rise of the median latency_best_p50_rel from the first to the second.
func runChildren(selected []workload, cfg runConfig, runs int) int {
	status := 0
	for _, w := range selected {
		passes := []bool{false}
		if cfg.traced {
			passes = append(passes, true)
		}
		medians := map[string]float64{}
		for _, traced := range passes {
			var reps []report
			for range runs {
				rep, err := runChild(w, cfg, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "pdcebench: %s: %v\n", w.name, err)
					status = 1
					continue
				}
				if !rep.Correct {
					status = 1
				}
				reps = append(reps, rep)
			}
			if len(reps) == 0 {
				continue
			}
			for _, d := range metricSet(traced) {
				v := make([]float64, len(reps))
				for i, rep := range reps {
					v[i] = rep.Metrics[d.name].Value
				}
				q1, q2, q3 := quartiles(v)
				medians[d.name] = q2
				fmt.Printf("summary %s %s median=%g q1=%g q3=%g %s runs=%d\n", w.name, d.name, q2, q1, q3, d.unit, len(reps))
			}
		}
		if cfg.traced && medians["latency_best_p50_rel"] > 0 {
			fmt.Printf("summary %s tracing_overhead %g ratio\n", w.name, medians["bench.traced_latency_best_p50_rel"]/medians["latency_best_p50_rel"]-1)
		}
	}
	return status
}

// runChild runs one workload in a child process pinned to gomaxprocs,
// echoes its output, and decodes the report on its last line.
func runChild(w workload, cfg runConfig, traced bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.duration.Seconds()), "-trace", trace)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return report{}, runErr
		}
		return report{}, fmt.Errorf("decoding the run's report: %w", err)
	}
	return rep, nil
}
