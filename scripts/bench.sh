#!/usr/bin/env bash
# bench.sh — run the benchmark suite (E1–E15 plus the micro-benchmarks,
# across all packages) with -benchmem and emit a machine-readable
# BENCH_<date>.json at the repo root, so successive PRs have a perf
# trajectory to regress against.
#
# Usage:
#   scripts/bench.sh                 # full suite, benchtime 1s
#   scripts/bench.sh --check         # run, then gate against the latest
#                                    # committed BENCH_*.json: >20% ns/op
#                                    # regression in E1–E15 fails (exit 1;
#                                    # baseline-foil sub-benchmarks like
#                                    # E13's /sweep are excluded, and
#                                    # >20% allocs/op growth is reported
#                                    # without failing — see benchcmp)
#   BENCHTIME=100ms scripts/bench.sh # quicker pass
#   BENCH_COUNT=3 scripts/bench.sh   # repeat each benchmark; the JSON
#                                    # records every run and benchcmp
#                                    # scores each name by its fastest,
#                                    # damping machine noise (use ≥3 for
#                                    # gating: IO-heavy benchmarks like
#                                    # E8/E9 swing >20% run to run)
#   BENCH_FILTER='BenchmarkE3' scripts/bench.sh
#
# Benchmark names must stay unique across packages: the JSON keys on the
# bare benchmark name, not the package path.
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
    CHECK=1
fi

BENCHTIME="${BENCHTIME:-1s}"
BENCH_COUNT="${BENCH_COUNT:-1}"
BENCH_FILTER="${BENCH_FILTER:-.}"
DATE="$(date +%Y-%m-%d)"
OUT="BENCH_${DATE}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running benchmarks (filter=${BENCH_FILTER}, benchtime=${BENCHTIME}, count=${BENCH_COUNT})..." >&2
go test -bench "$BENCH_FILTER" -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" -run '^$' ./... | tee "$RAW" >&2

# Convert `go test -bench` output lines into a JSON array. A benchmark
# line looks like:
#   BenchmarkName/sub-8  1234  567 ns/op  89 B/op  1 allocs/op  [extra metrics]
NUMCPU="$(nproc 2>/dev/null || echo 0)"

awk -v date="$DATE" -v numcpu="$NUMCPU" '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; iters = $2
    # go test appends -GOMAXPROCS to benchmark names ("BenchmarkFoo-8").
    # Record it (parallel benchmarks like E15 are meaningless without
    # it), then strip it so snapshots from machines with different core
    # counts still key on the same names (else the --check gate compares
    # nothing and passes vacuously).
    gomaxprocs = 0
    if (match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")        ns = $i
        else if ($(i+1) == "B/op")    bytes = $i
        else if ($(i+1) == "allocs/op") allocs = $i
        else if ($(i+1) ~ /\//) {
            gsub(/"/, "", $(i+1))
            extra = extra sprintf("%s\"%s\": %s", (extra == "" ? "" : ", "), $(i+1), $i)
        }
    }
    if (ns == "") next
    if (!first) printf(",\n"); first = 0
    printf("  {\"date\": \"%s\", \"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", date, name, iters, ns)
    if (gomaxprocs + 0 > 0) printf(", \"gomaxprocs\": %s", gomaxprocs)
    if (numcpu + 0 > 0)     printf(", \"numcpu\": %s", numcpu)
    if (bytes != "")  printf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") printf(", \"allocs_per_op\": %s", allocs)
    if (extra != "")  printf(", \"metrics\": {%s}", extra)
    printf("}")
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)" >&2

if [[ "$CHECK" == "1" ]]; then
    # Gate against the most recent snapshot as committed at HEAD (not the
    # working tree: bench.sh may have just overwritten today's file, and
    # comparing a file against itself proves nothing).
    BASE_NAME="$(git ls-files 'BENCH_*.json' | sort | tail -n 1 || true)"
    if [[ -z "$BASE_NAME" ]]; then
        echo "bench.sh --check: no committed baseline BENCH_*.json found; skipping gate" >&2
        exit 0
    fi
    BASE="$(mktemp)"
    trap 'rm -f "$RAW" "$BASE"' EXIT
    if ! git show "HEAD:${BASE_NAME}" > "$BASE" 2>/dev/null; then
        echo "bench.sh --check: cannot read HEAD:${BASE_NAME}; skipping gate" >&2
        exit 0
    fi
    echo "comparing against baseline ${BASE_NAME} (as of HEAD)..." >&2
    go run ./scripts/benchcmp -threshold 1.20 "$BASE" "$OUT"
fi
