#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload mp2_batch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build and
# .bench_out in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
