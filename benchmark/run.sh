#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark (and with it the program)
# from source into the checkout's own build directory, then runs it with the
# driver's arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload plan-hot --seed 1 --seconds 15 --trace 0
#
# The Go build cache is kept inside the checkout too, so that nothing outside
# it is read or written; the first build of a checkout compiles the standard
# library and takes about a minute.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
