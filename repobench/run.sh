#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash repobench/run.sh --workload fig2-infinite --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the checkout:
# the Go build cache, the binary and the benchmark's scratch state all
# live in $CARGO_TARGET_DIR (default .bench_build). The last line of
# standard output is the result JSON; progress goes to standard error.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off

go -C "$here" build -trimpath -o "$build/bin/repobench" .
exec "$build/bin/repobench" -expected "$here/expected.json" -work "$build/work" "$@"
