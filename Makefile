GO ?= go

.PHONY: all build fmt vet test race bench bench-json fuzz smoke-telemetry smoke-server smoke-trace chaos-smoke smoke-store docs-check bench-module ci

all: build

build:
	$(GO) build ./...

# Formatting gate: every tracked Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over the scaling benchmark, the bit-vector kernels, a warm
# pdced hit through the handler and a warm Client.Optimize round trip:
# catches bit-rot in the benchmark harness and prints current numbers
# without a full measurement run.
bench:
	$(GO) test -run '^$$' -bench PDEScaling -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench Kernels -benchtime 1x ./internal/bitvec
	$(GO) test -run '^$$' -bench WarmHit -benchmem -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench ClientOptimizeWarm -benchmem -benchtime 1x .

# Measurement run: execute the experiments.json matrix at quick scale,
# append the run (raw per-repeat records plus variance aggregates) to
# the committed BENCH_paper.json history, and regenerate the docs from
# it. Commit the history and doc changes together — the drift guard in
# `make test` byte-compares the docs against a fresh render.
bench-json:
	$(GO) run ./cmd/benchpaper -quick -json BENCH_paper.json > /dev/null
	$(GO) run ./cmd/benchreport

# Fuzz smoke over the containment contract: SafeOptimize must never
# panic and must always return a structurally valid program, whatever
# the input and option combination. Then nine decoders of untrusted
# bytes: pdce.Client's reader of /optimize replies (which must fail
# exactly when encoding/json does and otherwise decode the same value),
# the traceparent header parser, WAL recovery, the serving
# endpoints' request decoding (POST /optimize answers only 200 or a
# structured 400, a 200 carries a parseable program and repeats as a
# byte-identical cache hit; POST /optimize/batch answers 400 or one
# entry per program), the check that admits a stored result body
# (never one whose key differs or whose program does not parse), the
# three front ends that share the lexer (the flow-graph parser, whose
# accepted graphs must round-trip through Format and survive pde and
# pfe; the WHILE-language parser, whose lowered graphs must round-trip
# through Format; the expression parser, whose terms must round-trip
# through String), and DirStore's blob files (served only when they
# verify, otherwise removed).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSafeOptimize -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzDecodeOptimizeResponse -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzTraceparent -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzWALRecover -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzOptimizeRequest -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzAdmitStored -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzParseCFG -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzParseSource -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzParseExpr -fuzztime 10s ./internal/parser
	$(GO) test -run '^$$' -fuzz FuzzDirStoreBlob -fuzztime 10s ./internal/store

# Telemetry smoke: optimize the corpus with all collectors on and
# validate every report against the golden schema (in-process via the
# schema test, end-to-end via the CLI's -metrics-json and -explain).
smoke-telemetry:
	$(GO) test -run 'TestTelemetrySmoke|TestRunExplain|TestRunMetricsJSON|TestRunTraceJSON|TestRunBatchMetricsReport' . ./cmd/pdce
	$(GO) run ./cmd/pdce -stats -metrics-json /dev/null -workers 2 testdata/corpus > /dev/null
	$(GO) run ./cmd/pdce -explain sq testdata/corpus/stats.while | grep -q 'eliminated'

# Serving smoke: boot a real pdced daemon on an ephemeral port,
# optimize a corpus file through the client twice (the second request
# must be a content-addressed cache hit), then drain it cleanly with a
# synthesized SIGTERM. The server-package end-to-end tests (cache
# byte-identity, 429 shedding, graceful drain, the serving-path
# differential with its pool rows, a queue solve's counters, a failed
# job run once and never again, also when it is replayed from the log,
# queued jobs keeping their submission order and age across restarts,
# and a batch entry's miss path: shed at admission, joining an
# in-flight solve, a repeated entry served by the first one's solve,
# its own deadline, a contained panic), the client's refused
# async explain, the pool's routing key checked against the served key,
# the retry tests over Pool.Optimize and Pool.Submit, and cmd/pdce's
# one-prefix error lines ride along.
smoke-server:
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./cmd/pdced
	$(GO) test -race -count=1 -run 'TestCacheHitByteIdentical|TestQueueSaturation|TestGracefulDrain|TestPanic500NeverPoisonsCache|TestServingPathsAgree|TestSubmitCountsSolve|TestQueueFailureIsFinal|TestQueueReplayedFailIsFinal|TestQueueRestartKeepsSubmissionOrder|TestQueueRestartKeepsJobAge|TestBatchShedsAtAdmission|TestBatchEntryJoinsFlight|TestBatchRepeatedEntrySolvesOnce|TestBatchDeadlinePerEntry|TestBatchPanicEntry' ./internal/server
	$(GO) test -race -count=1 -run 'TestFailureLinesCarryOnePrefix' ./cmd/pdce
	$(GO) test -race -count=1 -run 'TestClientSubmitExplain|TestAffinityKeyIsServedKey|TestRetryHonorsRetryAfter|TestNoRetryOnDeterministicFailure|TestRetryBudgetCapsTotalRequests|TestTransportFailureFailsOver' .

# Tracing smoke: boot a real pdced, push one request through a traced
# pdce.Pool, and assert the daemon ends up holding the single merged
# span tree (client root, attempt, server subtree down to the solver
# rounds) plus the Prometheus text exposition of the trace-store
# counters. The pool-retry, queue-span, WAL-replay-link, and
# request-id-to-solver-rounds end-to-end tests ride along, as do the
# client's traceparent on all four optimize routes and the -debug-addr
# pprof listener drill.
smoke-trace:
	$(GO) test -race -count=1 -run 'TestSmokeTrace|TestDebugListenerShutdown' ./cmd/pdced
	$(GO) test -race -count=1 -run 'TestPoolTraceEndToEnd|TestClientPropagatesTraceparent' .
	$(GO) test -race -count=1 -run 'TestQueueTraceSpans|TestQueueReplayTraceLink|TestTraceJoinAndSpanTree|TestTraceRecoversSolverRounds' ./internal/server

# Chaos smoke: one fixed-seed schedule of the cluster chaos harness
# under the race detector — replica crashes with torn WAL tails,
# interrupted drains, transport faults, and solver stalls against a
# three-replica in-process cluster, asserting no acked job is lost, no
# result diverges from a fault-free reference, and no goroutine leaks.
# (The full randomized sweep is TestChaosRandomized in ./internal/chaos.)
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmoke' ./internal/chaos

# Store smoke: the shared L2 persistence tier under the race detector —
# the blobd daemon's serve loop, the server wiring (L2 backfill, lease
# loser fetch, expiry takeover, outage degradation, the fleet restart
# drill, batch L2 reads and publishes, a submission answered from L2,
# peer serving, spill orphan sweep, the L2 hit of the serving-path
# differential), the mixed-version key-space isolation property, and
# one fixed-seed chaos schedule with store outages, slow backends, and
# lease owners crashing mid-solve in the fault deck.
# (The full randomized sweep is TestChaosStoreRandomized in ./internal/chaos.)
smoke-store:
	$(GO) test -race -count=1 ./internal/store
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./cmd/pdce-blobd
	$(GO) test -race -count=1 -run 'TestStore|TestPeerCacheServing|TestSpillOrphanSweep|TestServingPathsAgree' ./internal/server
	$(GO) test -race -count=1 -run 'TestStoreKeyVersionIsolation' .
	$(GO) test -race -count=1 -run 'TestChaosStoreSmoke' ./internal/chaos

# Docs drift guard: every query parameter the server parses and every
# field /metrics emits must be documented in docs/API.md, and the
# generated benchmark tables in docs/BENCHMARKS.md, EXPERIMENTS.md, and
# README.md must byte-match a fresh render of the committed
# BENCH_paper.json history. Beside it, the wire-drift guard: the
# /metrics JSON and Prometheus bodies of a fixed request sequence must
# byte-match internal/server/testdata/metrics.golden, timing masked.
docs-check:
	$(GO) test -run 'TestDocsCover|TestMetricsGolden' ./internal/server
	$(GO) test -run 'TestCommittedDocs' ./internal/bench

# Benchmark module: cmd/pdcebench is a nested module, so `go build ./...`
# and `go test ./...` skip it. Vet and test it on its own, so a change
# to pdce or internal/server that breaks the benchmark fails here.
bench-module:
	cd cmd/pdcebench && $(GO) vet . && $(GO) test .

# Full local CI: static checks (gofmt, vet), build, the whole suite
# under the race detector (includes the incremental-vs-reference
# equivalence property tests, the batch pipeline and fault-injection
# tests, the allocation budget guard, and the two goldens that pin the
# paper's clock-free claims and the driver's work), a benchmark smoke
# pass, the containment fuzz smoke, the telemetry, serving, tracing,
# chaos, and store smokes, the docs drift guard, and the benchmark
# module's vet and tests.
ci: fmt vet build race bench fuzz smoke-telemetry smoke-server smoke-trace chaos-smoke smoke-store docs-check bench-module
