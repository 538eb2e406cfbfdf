// Command pdced is the long-running optimization service: it accepts
// programs over HTTP (single and batch), optimizes them through the
// failure-contained pdce pipeline, and memoizes results in a
// content-addressed cache (the transformation is deterministic, so
// identical inputs are served without re-solving).
//
// Usage:
//
//	pdced -addr localhost:8723 -spill-dir /var/cache/pdced
//
// Endpoints:
//
//	POST /optimize             optimize one program (body = source text)
//	POST /optimize/batch       optimize many programs (JSON body)
//	POST /optimize/submit      enqueue one program durably (needs -queue-dir)
//	GET  /optimize/result/{id} poll an async job
//	GET  /healthz              liveness (green even while load shedding)
//	GET  /metrics              cache, queue, and latency counters
//	                           (?format=prom for Prometheus text)
//	GET  /debug/traces         retained request traces (tail-sampled)
//	GET  /debug/traces/{id}    one trace's span tree
//	GET/PUT /cache/{key}       peer L2 serving (only with -peer-cache)
//
// A fleet shares results through the L2 store (-store): every local
// solve is published, every local miss consults it before solving, and
// solve ownership for cold keys is arbitrated cluster-wide through TTL
// leases (-lease-ttl), so a thundering herd across replicas computes
// once. Back it with a shared directory (-store=dir:/mnt/pdce), a
// pdce-blobd daemon (-store=http://host:8742), or a sibling replica
// running -peer-cache.
//
// Examples:
//
//	curl -s -X POST --data-binary @prog.while 'localhost:8723/optimize?telemetry=1'
//	curl -s -X POST --data-binary @prog.while 'localhost:8723/optimize?mode=pfe&deadline_ms=500'
//	curl -s 'localhost:8723/metrics' | jq .cache.hit_rate
//
// On SIGTERM/SIGINT the daemon drains gracefully: new requests are
// rejected with 503 (and /healthz turns red so load balancers stop
// routing), every in-flight optimization runs to completion, then the
// process exits 0. A second signal, or -drain-timeout expiring, forces
// exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pdce/internal/server"
	"pdce/internal/store"
)

var (
	addr         = flag.String("addr", "localhost:8723", "listen address")
	cacheEntries = flag.Int("cache-entries", 4096, "in-memory result cache capacity (entries)")
	spillDir     = flag.String("spill-dir", "", "directory for disk-spilled cache entries (warm results survive restarts; empty = memory only)")
	maxInFlight  = flag.Int("max-inflight", 0, "concurrent optimizations (0 = GOMAXPROCS)")
	maxQueue     = flag.Int("max-queue", 0, "requests allowed to wait for a slot before shedding with 429 (0 = 4x max-inflight)")
	deadline     = flag.Duration("deadline", 10*time.Second, "default per-request optimization deadline (0 = none; requests may override with deadline_ms)")
	roundBudget  = flag.Duration("round-budget", 0, "watchdog bound per fixpoint round (0 = none)")
	reproDir     = flag.String("repro-dir", "", "directory for repro bundles of contained optimizer panics")
	batchWorkers = flag.Int("workers", 0, "worker pool size for /optimize/batch (0 = max-inflight)")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long graceful drain waits for in-flight requests")
	queueDir     = flag.String("queue-dir", "", "directory for the durable async job queue's write-ahead log (empty = async endpoints disabled)")
	queueWorkers = flag.Int("queue-workers", 0, "worker pool size for the async queue (0 = 2)")
	storeSpec    = flag.String("store", "", "shared L2 result store: dir:/path (shared filesystem), http://host:port (pdce-blobd or a -peer-cache replica), mem (testing), or off/empty (disabled)")
	leaseTTL     = flag.Duration("lease-ttl", 0, "cluster solve-lease lifetime: how long a crashed replica can stall a key fleet-wide (0 = 3s)")
	peerCache    = flag.Bool("peer-cache", false, "serve this replica's own cache at GET/PUT /cache/{key} so fleet members can use each other as L2 peers")
	traceCap     = flag.Int("trace-cap", 512, "retained request traces (0 disables tracing)")
	traceSample  = flag.Float64("trace-sample", 1.0, "keep probability for unremarkable traces in [0,1]; error and p99-slow traces are always kept")
	debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); keep it off the service port and firewalled — profiles expose source paths and heap contents")
)

func main() {
	flag.Parse()
	cfg, err := configFromFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdced:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdced:", err)
		os.Exit(1)
	}
	var debugLn net.Listener
	if *debugAddr != "" {
		debugLn, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdced: -debug-addr:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pdced: pprof on http://%s/debug/pprof/ (do not expose publicly)\n", debugLn.Addr())
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := serve(cfg, ln, debugLn, sig); err != nil {
		fmt.Fprintln(os.Stderr, "pdced:", err)
		os.Exit(1)
	}
}

func configFromFlags() (server.Config, error) {
	if err := validateDirs(*spillDir, *queueDir, *reproDir, *storeSpec); err != nil {
		return server.Config{}, err
	}
	backend, err := store.Open(*storeSpec)
	if err != nil {
		return server.Config{}, fmt.Errorf("-store: %w", err)
	}
	cfg := server.Config{
		CacheEntries:    *cacheEntries,
		SpillDir:        *spillDir,
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *deadline,
		RoundBudget:     *roundBudget,
		ReproDir:        *reproDir,
		BatchWorkers:    *batchWorkers,
		QueueDir:        *queueDir,
		QueueWorkers:    *queueWorkers,
		TraceCapacity:   *traceCap,
		TraceSample:     *traceSample,
		Store:           backend,
		LeaseTTL:        *leaseTTL,
		PeerCache:       *peerCache,
	}
	if *traceCap <= 0 {
		cfg.TraceCapacity = -1 // the CLI's "0 = off" maps to Config's "negative = off"
	}
	return cfg, nil
}

// validateDirs refuses directory flags that alias each other. Each
// tier owns its directory's file lifecycle — the spill cache sweeps
// tmp-* orphans and quarantines corrupt .entry files, the queue
// rewrites its WAL, a dir: store sweeps and fans out blobs — so two
// tiers sharing one directory would sweep and quarantine each other's
// files. Caught at startup, where the fix (distinct paths) is obvious,
// instead of as silent data loss later.
func validateDirs(spill, queue, repro, storeSpec string) error {
	owners := map[string]string{}
	claim := func(flagName, p string) error {
		if p == "" {
			return nil
		}
		cp := filepath.Clean(p)
		if prev, ok := owners[cp]; ok {
			return fmt.Errorf("%s and %s both point at %q; each needs its own directory", prev, flagName, cp)
		}
		owners[cp] = flagName
		return nil
	}
	if err := claim("-spill-dir", spill); err != nil {
		return err
	}
	if err := claim("-queue-dir", queue); err != nil {
		return err
	}
	if err := claim("-repro-dir", repro); err != nil {
		return err
	}
	if p, ok := strings.CutPrefix(storeSpec, "dir:"); ok {
		if err := claim("-store=dir:", p); err != nil {
			return err
		}
	}
	return nil
}

// serveDebug runs the opt-in pprof surface on its own listener, kept
// apart from the service port so profiles are never one firewall
// mistake away from the public API. The returned shutdown closes the
// listener as well as the server — srv.Close only closes listeners
// Serve has already registered, and losing that race would leave the
// debug port bound for the life of the process (the same pattern as
// cmd/pdce's telemetry listener).
func serveDebug(ln net.Listener) (shutdown func()) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() {
		srv.Close()
		ln.Close()
	}
}

// serve runs the daemon on ln until a signal arrives, then drains:
// the server stops admitting (503 + red /healthz), the HTTP layer
// waits for in-flight requests, and the listener closes. debugLn, when
// non-nil, serves pprof until the same shutdown. Factored out of main
// so tests can drive a real daemon on an ephemeral port with a
// synthesized signal.
func serve(cfg server.Config, ln, debugLn net.Listener, sig <-chan os.Signal) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if debugLn != nil {
		defer serveDebug(debugLn)()
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "pdced: serving on http://%s\n", ln.Addr())

	select {
	case err := <-errc:
		ln.Close()
		return err
	case <-sig:
	}

	fmt.Fprintln(os.Stderr, "pdced: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Refuse new work first so the HTTP shutdown below only has to
	// wait for requests that were already admitted.
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "pdced:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "pdced: drained, exiting")
	return nil
}
