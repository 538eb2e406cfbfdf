// Command benchreport is the analysis stage of the paper reproduction
// harness. It consumes the BENCH_paper.json run history written by
// cmd/benchpaper and regenerates the reproduction docs from it.
//
// Regeneration rewrites docs/BENCHMARKS.md wholesale and splices the
// generated-table blocks of EXPERIMENTS.md and README.md in place —
// everything between `<!-- generated:begin NAME -->` and
// `<!-- generated:end NAME -->` markers is owned by the renderer, the
// surrounding prose stays hand-written. The render is deterministic, so
// re-running against committed data is byte-stable; the drift-guard
// test in internal/bench enforces that the committed docs match.
//
// Usage:
//
//	benchreport                      # regenerate docs from BENCH_paper.json
package main

import (
	"flag"
	"fmt"
	"os"

	"pdce/internal/bench"
	"pdce/internal/obs"
)

var (
	historyPath = flag.String("history", "BENCH_paper.json", "run history to analyze")
	configPath  = flag.String("config", "experiments.json", "experiment matrix config (missing file = built-in defaults)")
	benchDoc    = flag.String("benchmarks", "docs/BENCHMARKS.md", "generated benchmarks document to (re)write ('' = skip)")
	expDoc      = flag.String("experiments-doc", "EXPERIMENTS.md", "document whose generated blocks are spliced ('' = skip)")
	readmeDoc   = flag.String("readme", "README.md", "document whose generated blocks are spliced ('' = skip)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}

// run rewrites the generated docs from the history.
func run() error {
	h, err := obs.LoadBenchHistory(*historyPath)
	if err != nil {
		return err
	}
	matrix, err := bench.LoadMatrix(*configPath)
	if err != nil {
		return err
	}
	if len(h.Runs) == 0 {
		return fmt.Errorf("%s: history has no runs; run `go run ./cmd/benchpaper -json %s` first",
			*historyPath, *historyPath)
	}
	r := bench.NewRenderer(h, matrix)
	if *benchDoc != "" {
		if err := writeIfChanged(*benchDoc, []byte(r.BenchmarksDoc())); err != nil {
			return err
		}
	}
	blocks := r.Blocks()
	for _, path := range []string{*expDoc, *readmeDoc} {
		if path == "" {
			continue
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		next, changed, err := bench.SpliceAll(doc, blocks)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !changed {
			fmt.Printf("benchreport: %s unchanged\n", path)
			continue
		}
		if err := os.WriteFile(path, next, 0o644); err != nil {
			return err
		}
		fmt.Printf("benchreport: %s updated\n", path)
	}
	return nil
}

func writeIfChanged(path string, content []byte) error {
	old, err := os.ReadFile(path)
	if err == nil && string(old) == string(content) {
		fmt.Printf("benchreport: %s unchanged\n", path)
		return nil
	}
	if err := os.WriteFile(path, content, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchreport: %s updated\n", path)
	return nil
}
