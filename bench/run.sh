#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/
# (Go build cache included, so nothing is written outside the checkout)
# and runs it with the caller's arguments:
#
#   bash bench/run.sh --workload serve-read-mix --seed 1 --seconds 14 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/kgbench" .
exec "$build/kgbench" -out "$here/out" "$@"
