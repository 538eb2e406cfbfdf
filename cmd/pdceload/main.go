// Command pdceload drives one or more pdced replicas with a
// closed-loop load generator: a fixed number of workers each keep
// exactly one request in flight, so offered load adapts to what the
// cluster can absorb instead of piling up an open-loop backlog.
//
// Requests go through pdce.Pool, so the generator exercises the full
// cluster client — consistent-hash affinity, health ejection, bounded
// retry, and (with -hedge) hedged requests — and its report is the
// pool's own view of the run: throughput, latency percentiles,
// per-replica attempt and failure counts, affinity hit rate.
//
// Usage:
//
//	pdceload -replicas http://host1:8723,http://host2:8723 -conc 16 -duration 30s
//	pdceload -replicas http://localhost:8723 -programs 64 -stmts 256 -hedge
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdce"
	"pdce/internal/progen"
)

type loadConfig struct {
	replicas   []string
	conc       int
	duration   time.Duration
	programs   int
	stmts      int
	seed       int64
	mode       string
	hedge      bool
	hedgeDelay time.Duration
}

var (
	replicasFlag = flag.String("replicas", "http://localhost:8723", "comma-separated pdced base URLs")
	conc         = flag.Int("conc", 8, "closed-loop workers (requests in flight)")
	duration     = flag.Duration("duration", 10*time.Second, "how long to drive load")
	programs     = flag.Int("programs", 32, "distinct generated programs (the working set)")
	stmts        = flag.Int("stmts", 160, "statements per generated program")
	seed         = flag.Int64("seed", 1, "program-generator seed")
	mode         = flag.String("mode", "", "optimization mode passed through (pde, pfe; empty = server default)")
	hedge        = flag.Bool("hedge", false, "race a second replica after the hedge delay")
	hedgeDelay   = flag.Duration("hedge-delay", 0, "fixed hedge delay (0 = derive from observed p95)")
)

func main() {
	flag.Parse()
	cfg := loadConfig{
		replicas:   strings.Split(*replicasFlag, ","),
		conc:       *conc,
		duration:   *duration,
		programs:   *programs,
		stmts:      *stmts,
		seed:       *seed,
		mode:       *mode,
		hedge:      *hedge,
		hedgeDelay: *hedgeDelay,
	}
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pdceload:", err)
		os.Exit(1)
	}
}

// run drives the load and writes the report. Factored out of main so
// the smoke test can point it at in-process replicas.
func run(ctx context.Context, cfg loadConfig, out io.Writer) error {
	p, err := pdce.NewPool(cfg.replicas, pdce.PoolOptions{
		Hedge:      cfg.hedge,
		HedgeDelay: cfg.hedgeDelay,
		Seed:       cfg.seed,
	})
	if err != nil {
		return err
	}
	defer p.Close()

	sources := make([]string, cfg.programs)
	for i := range sources {
		sources[i] = progen.Generate(progen.Params{Seed: cfg.seed + int64(i), Stmts: cfg.stmts}).Format()
	}
	var opts pdce.RequestOptions
	switch cfg.mode {
	case "":
	case "pde":
		opts.Mode = pdce.Dead
	case "pfe":
		opts.Mode = pdce.Faint
	default:
		return fmt.Errorf("unknown -mode %q (want pde or pfe)", cfg.mode)
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	var done, failed atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ctx.Err() == nil; i++ {
				idx := i % len(sources)
				_, _, err := p.Optimize(ctx, fmt.Sprintf("load-%02d", idx), sources[idx], opts)
				if ctx.Err() != nil {
					return // the deadline, not the cluster, ended this request
				}
				if err != nil {
					failed.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := p.Stats().Snapshot()
	fmt.Fprintf(out, "pdceload: %d requests in %v (%.1f reqs/s), %d failed, %d workers, %d replicas\n",
		done.Load(), elapsed.Round(time.Millisecond),
		float64(done.Load())/elapsed.Seconds(), failed.Load(), cfg.conc, len(cfg.replicas))
	fmt.Fprintf(out, "latency: p50 %v  p95 %v  max %v\n",
		time.Duration(snap.P50NS).Round(time.Microsecond),
		time.Duration(snap.P95NS).Round(time.Microsecond),
		time.Duration(snap.MaxNS).Round(time.Microsecond))
	fmt.Fprintf(out, "affinity hit rate %.3f, failovers %d, hedges %d (won %d)\n",
		snap.AffinityHitRate, snap.Failovers, snap.Hedges, snap.HedgesWon)
	for _, r := range cfg.replicas {
		base := strings.TrimRight(r, "/") // the pool's name for the replica
		rc := snap.Replicas[base]         // zero for a replica that got no request
		fmt.Fprintf(out, "replica %s: %d attempts, %d failures, %d ejections, %d readmissions\n",
			base, rc.Attempts, rc.Failures, rc.Ejections, rc.Readmissions)
	}
	if failed.Load() > 0 {
		return fmt.Errorf("%d requests failed, first: %w", failed.Load(), firstErr)
	}
	return nil
}
