#!/usr/bin/env bash
# Builds the page-load benchmark from source and runs one workload. Run it
# from the repository root, e.g.
#
#   bash pagebench/run.sh --workload hot-read-tcp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# WAL directories, result files, span dumps) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
go -C "$root/pagebench" build -o "$build/pagebench" . >&2
exec "$build/pagebench" "$@"
