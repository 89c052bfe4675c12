#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources (vendored dependencies, no network) and runs it.
# Everything it writes — Go's build cache, the binary, the run's data —
# stays under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/data"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=vendor GOTOOLCHAIN=local
go build -o "$build/preserv-benchmark" ./benchmark
exec "$build/preserv-benchmark" -dir "$build/data" "$@"
