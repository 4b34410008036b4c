#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root: bash benchmark/run.sh --workload gob_prove --seed 42
# --seconds 10 --trace 0. Everything the build writes stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/vchain-benchmark" .)
exec "$build/vchain-benchmark" "$@"
