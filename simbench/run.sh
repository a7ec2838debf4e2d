#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash simbench/run.sh --workload microtask --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go caches and the compiler's temporary files stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" GOFLAGS=
go -C "$root/simbench" build -o "$build/simbench" .
exec "$build/simbench" "$@"
