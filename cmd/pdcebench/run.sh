#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
#
# Run it from the root of a checkout:
#
#   bash cmd/pdcebench/run.sh -workload serve-warm -seed 1 -seconds 15 -trace 0
#
# Every build output (the Go build cache and the binary) and every file
# the benchmark writes stays under .bench_build/ in the current
# directory.
set -euo pipefail

out="$PWD/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out"
(cd "$src" && go build -o "$out/pdcebench" .)
exec "$out/pdcebench" "$@"
