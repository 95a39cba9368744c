#!/usr/bin/env bash
# ci.sh — the local CI gate: formatting, vet, build (plus an arm64
# cross-build: the kNN kernel's generic body must compile where the amd64
# assembly does not), a flag-parse smoke of kgserve, a durable kgserve
# smoke (seed a data dir, ingest, kill -9, restart, SIGTERM, restart: the
# on-disk format through the real binary), a default-argument run of
# every example and the odke/weblink/embedtrain commands (cmd/* and
# examples/* have no tests), the full test suite under the race detector — the graph, query, rules,
# serving and durability packages again at 1, 2 and 4 procs, since green
# at GOMAXPROCS=1 only is red — the kNN and embedding packages again
# under -tags purego (the Go bodies of the scan kernel and the training
# step kernel, which an AVX2 host never otherwise runs a search or a
# training through; the trained-matrix hash committed in
# internal/embedding must come out the same), the benchmark module's own
# vet + smoke test
# (bench/ has its own go.mod, so ./... never reaches it and an API drift
# in saga or internal/server would otherwise break the benchmark
# silently), a few seconds of native fuzzing on the wire encoder's and the
# two wire decoders' targets, on the two kernels' and the tokenizer's
# differential targets, on the fact set's, the mutation log
# retention's and the subject runs' model-based ones, on the stored fact
# row's round trip, on the model file reader's, on the checkpoint
# loader's and on the log segment replayer's, on rule maintenance
# against a from-scratch derivation and on the rule parser, and a short
# open-loop load smoke against an in-process server (kgload -smoke:
# zero 5xx, zero transport errors, p99 of admitted requests under the
# read route's deadline).
# Run it before every push; it is exactly what a hosted CI job would
# run, so a clean exit here means a clean check there.
#
# Usage:
#   scripts/ci.sh            # full gate
#   SKIP_RACE=1 scripts/ci.sh  # tests without -race (quick mode)
#   SKIP_LOAD=1 scripts/ci.sh  # skip the load smoke
#   FUZZTIME=30s scripts/ci.sh # longer fuzz smoke (default 5s per target)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...
GOARCH=arm64 go build ./...

echo "== kgserve flag parse =="
go run ./cmd/kgserve -h >/dev/null 2>&1

# The on-disk format through the real binary, on a temp data dir and a
# loopback port: seed, ingest one fact, kill -9, restart (the log replays
# the fact), SIGTERM (writes a delta checkpoint), restart again (full +
# delta recover it). After each restart /health's graph layers (base +
# delta adds - delta removals) must sum to its triples. Any failed step
# fails the gate.
echo "== kgserve durable smoke (seed, ingest, kill -9, recover, delta) =="
smoke=$(mktemp -d)
kgpid=""
trap '[[ -n "$kgpid" ]] && kill -9 "$kgpid" 2>/dev/null; rm -rf "$smoke"' EXIT
go build -o "$smoke/kgserve" ./cmd/kgserve
addr="127.0.0.1:$((20000 + RANDOM % 20000))"
smoke_fail() {
    echo "durable smoke: $1; kgserve log $2:" >&2
    tail -20 "$smoke/$2" >&2
    exit 1
}
smoke_start() { # smoke_start <log>: start kgserve and wait until it answers
    "$smoke/kgserve" -addr "$addr" -people 40 -docs 50 -epochs 5 -data-dir "$smoke/data" >"$smoke/$1" 2>&1 &
    kgpid=$!
    for _ in $(seq 240); do
        if curl -sf "http://$addr/health" >/dev/null; then return 0; fi
        kill -0 "$kgpid" 2>/dev/null || break
        sleep 0.5
    done
    smoke_fail "kgserve did not come up" "$1"
}
smoke_stop() { # smoke_stop <signal>
    kill "-$1" "$kgpid"
    wait "$kgpid" 2>/dev/null || true
    kgpid=""
}
smoke_expect() { # smoke_expect <log> <text>: the log holds the text
    grep -qF -- "$2" "$smoke/$1" || smoke_fail "no '$2'" "$1"
}
smoke_has_fact() { # smoke_has_fact <log>: /query finds the ingested fact
    local out
    out=$(curl -sf -X POST "http://$addr/query" \
        -d '{"clauses":[{"subject":{"key":"person0"},"predicate":"libraryID","object":{"var":"x"}}]}') || true
    [[ "$out" == *crash-test* ]] || smoke_fail "/query does not find the ingested fact: $out" "$1"
}
smoke_layers() { # smoke_layers <log>: /health's graph layers sum to its fact count
    local h base adds dels triples
    h=$(curl -sf "http://$addr/health") || true
    base=$(grep -o '"base_facts":[0-9]*' <<<"$h" | cut -d: -f2)
    adds=$(grep -o '"delta_adds":[0-9]*' <<<"$h" | cut -d: -f2)
    dels=$(grep -o '"delta_removals":[0-9]*' <<<"$h" | cut -d: -f2)
    triples=$(grep -o '"triples":[0-9]*' <<<"$h" | cut -d: -f2)
    [[ -n "$base" && -n "$adds" && -n "$dels" && -n "$triples" && $((base + adds - dels)) -eq "$triples" ]] ||
        smoke_fail "/health graph layers do not sum to its triples: $h" "$1"
}
smoke_start seed.log
smoke_expect seed.log "seeding fresh data dir"
out=$(curl -sf -X POST "http://$addr/ingest" \
    -d '{"asserts":[{"subject":"person0","predicate":"libraryID","object":{"string":"crash-test"}}]}') || true
[[ "$out" == *'"added":1'* ]] || smoke_fail "/ingest answered '$out'" seed.log
smoke_stop 9
smoke_start crash.log
smoke_expect crash.log ", 1 mutations replayed past checkpoint"
smoke_has_fact crash.log
smoke_layers crash.log
smoke_stop TERM
smoke_expect crash.log "durable state closed"
ckpts=$(find "$smoke/data" -name 'checkpoint-*.ckpt' | wc -l)
[[ "$ckpts" -eq 2 ]] || smoke_fail "$ckpts checkpoint files after SIGTERM, want the full one and a delta" crash.log
smoke_start delta.log
smoke_expect delta.log ", 0 mutations replayed past checkpoint"
smoke_has_fact delta.log
smoke_layers delta.log
smoke_stop TERM

# cmd/* and examples/* have no tests; running each with its default
# arguments is what catches a caller broken by an API change.
echo "== examples and commands (default arguments) =="
for main in examples/quickstart examples/weblinking examples/odke examples/ondevice \
    cmd/odke cmd/weblink cmd/embedtrain; do
    if ! out=$(go run "./$main" 2>&1); then
        echo "$main exited non-zero:" >&2
        echo "$out" | tail -20 >&2
        exit 1
    fi
done

if [[ "${SKIP_RACE:-}" == "1" ]]; then
    echo "== go test =="
    go test ./...
else
    echo "== go test -race =="
    go test -race ./...
    # internal/wal's on-disk byte-identity test and internal/kg's chunked-
    # log pull-beside-truncate test ride this set; internal/rules is in it
    # because query goroutines read the rule engine's FactSet directly
    # while the maintainer writes it.
    echo "== go test -race -cpu 1,2,4 (order and concurrency contracts) =="
    go test -race -cpu 1,2,4 ./internal/kg ./internal/graphengine ./internal/rules ./internal/server ./internal/wal ./saga
fi

echo "== go test -tags purego (Go bodies of the kNN and training kernels) =="
go test -tags purego ./internal/vecindex ./internal/embedserve ./internal/embedding

echo "== bench module (vet + smoke test) =="
(cd bench && go vet ./... && go test ./...)

echo "== fuzz smoke =="
go test -run '^$' -fuzz '^FuzzAppendJSONString$' -fuzztime "${FUZZTIME:-5s}" ./internal/server/
go test -run '^$' -fuzz '^FuzzDecodeIngest$' -fuzztime "${FUZZTIME:-5s}" ./internal/server/
go test -run '^$' -fuzz '^FuzzDecodeCursor$' -fuzztime "${FUZZTIME:-5s}" ./internal/graphengine/
go test -run '^$' -fuzz '^FuzzFactSet$' -fuzztime "${FUZZTIME:-5s}" ./internal/graphengine/
go test -run '^$' -fuzz '^FuzzFactRow$' -fuzztime "${FUZZTIME:-5s}" ./internal/kg/
go test -run '^$' -fuzz '^FuzzLogRetention$' -fuzztime "${FUZZTIME:-5s}" ./internal/kg/
go test -run '^$' -fuzz '^FuzzFactRuns$' -fuzztime "${FUZZTIME:-5s}" ./internal/kg/
go test -run '^$' -fuzz '^FuzzDotRows$' -fuzztime "${FUZZTIME:-5s}" ./internal/vecindex/
go test -run '^$' -fuzz '^FuzzTriStep$' -fuzztime "${FUZZTIME:-5s}" ./internal/vecindex/
go test -run '^$' -fuzz '^FuzzLoadModel$' -fuzztime "${FUZZTIME:-5s}" ./internal/embedding/
go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime "${FUZZTIME:-5s}" ./internal/wal/
go test -run '^$' -fuzz '^FuzzReplaySegment$' -fuzztime "${FUZZTIME:-5s}" ./internal/wal/
go test -run '^$' -fuzz '^FuzzTokenize$' -fuzztime "${FUZZTIME:-5s}" ./internal/textutil/
go test -run '^$' -fuzz '^FuzzRuleMaintenance$' -fuzztime "${FUZZTIME:-5s}" ./internal/rules/
go test -run '^$' -fuzz '^FuzzParseRules$' -fuzztime "${FUZZTIME:-5s}" ./internal/rules/

if [[ "${SKIP_LOAD:-}" != "1" ]]; then
    echo "== load smoke (kgload) =="
    go run ./cmd/kgload -smoke -rate 300 -duration 2s
fi

echo "CI gate passed."
