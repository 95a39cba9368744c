#!/usr/bin/env bash
# reach.sh — production functions that nothing shipped links, and
# package saga's re-exports that nothing names.
#
# Builds every cmd/* and examples/* binary, the bench/ module's binary and
# its smoke-test binary, and the root package's experiment test binary
# (E1–E20), all with inlining off (-gcflags=all=-l, so an inlined function
# still shows), and reads their text symbols with `go tool nm`, generic
# brackets stripped ((*table[go.shape…]).add reads as (*table).add). It
# then prints every function with a body, in the files `go list` reports
# for the root module's default build outside bench/, cmd/, examples/ and
# scripts/, that no binary holds. purego- and arm64-only files are not in
# that build: their default-build twins stand for them.
#
# A linker keeps no symbol for a type alias, and none for a constant or
# a variable it can fold or drop, so package saga's re-exports are
# checked by name instead: every exported type alias, constant and
# variable declared in saga/*.go (tests excluded) is listed as
# saga/saga.<name> unless some Go code of the repo names it — in saga/
# by the bare name on a line other than its declaration and comments,
# anywhere else (tests, bench/, cmd/ and examples/ included) as
# saga.<name>.
#
# scripts/reach_allow.txt names the functions and re-exports that stay
# unreached, one symbol and its keep reason a line. The script fails on
# an unreached one missing from it, and on an entry that is now reached
# or gone.
#
# Usage:
#   scripts/reach.sh
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

noinline=-gcflags=all=-l
for main in cmd/* examples/*; do # cmd/odke and examples/odke: one name each
    go build "$noinline" -o "$tmp/bin/${main/\//-}" "./$main"
done
go build -C bench "$noinline" -o "$tmp/bin/kgbench" .
go test -C bench -c "$noinline" -o "$tmp/bin/kgbench.test" .
go test -c "$noinline" -o "$tmp/bin/saga.test" .

# Text symbols of the module's packages, generic brackets stripped. The
# name field can hold spaces (go.shape.struct { … }), so it is the rest of
# the line after the address and the type letter.
for b in "$tmp"/bin/*; do
    go tool nm "$b"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] (saga\/.*)$/\1/p' | awk '{
    out = ""; d = 0
    for (i = 1; i <= length($0); i++) {
        c = substr($0, i, 1)
        if (c == "[") d++
        else if (c == "]") d--
        else if (d == 0) out = out c
    }
    print out
}' | sort -u >"$tmp/reached"

# Every top-level function with a body: symbol, file:line, lines. gofmt puts
# each declaration at column 0 and each body's closing brace alone at
# column 0; a signature ends on the first line that ends in { or } (a
# body) or that closes its last parenthesis (an assembly stub, no body).
go list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... |
    while read -r pkg dir files; do
        case "$pkg" in saga/cmd/* | saga/examples/* | saga/scripts/*) continue ;; esac
        [[ -n "$files" ]] || continue
        rel=${dir#"$PWD"/}
        # shellcheck disable=SC2086
        (cd "$dir" && awk -v pkg="$pkg" -v rel="$rel" '
            function emit() {
                if (name != "_" && !(recv == "" && name == "init"))
                    printf "%s\t%s/%s:%d\t%d\n", sym, rel, FILENAME, start, FNR - start + 1
            }
            FNR == 1 { state = 0 }
            state == 2 { if ($0 == "}") { emit(); state = 0 }; next }
            state == 0 && /^func / {
                s = substr($0, 6); recv = ""
                if (substr(s, 1, 1) == "(") {
                    i = index(s, ")"); r = substr(s, 2, i - 2); s = substr(s, i + 2)
                    b = index(r, "["); if (b) r = substr(r, 1, b - 1)
                    n = split(r, part, " "); recv = part[n]
                }
                match(s, /^[A-Za-z_][A-Za-z0-9_]*/); name = substr(s, 1, RLENGTH)
                if (recv == "") sym = pkg "." name
                else if (substr(recv, 1, 1) == "*") sym = pkg ".(" recv ")." name
                else sym = pkg "." recv "." name
                start = FNR; depth = 0; state = 1
            }
            state == 1 {
                line = $0; sub(/[ \t]+\/\/[^"`]*$/, "", line)
                depth += gsub(/\(/, "(", line) - gsub(/\)/, ")", line)
                if (line ~ /\{$/) state = 2
                else if (line ~ /\}$/) { emit(); state = 0 }
                else if (depth == 0) state = 0
            }' $files)
    done | sort >"$tmp/declared"

# Package saga's exported type aliases, constants and variables, at one
# tab inside a type/var/const block or on a one-line declaration, with
# the file and line that declare them; each counts as reached when a line
# of code names it in saga/ (its own declaration and comments aside; a
# name after another package's dot, kg.Value, is not it) or as
# saga.<name> anywhere else.
git ls-files --cached --others --exclude-standard '*.go' | while read -r f; do
    if [[ -f $f ]]; then echo "$f"; fi
done >"$tmp/gofiles"
mapfile -t sagafiles < <(grep '^saga/' "$tmp/gofiles")
mapfile -t otherfiles < <(grep -v '^saga/' "$tmp/gofiles")
for f in saga/*.go; do
    if [[ $f == *_test.go ]]; then continue; fi
    awk -v f="$f" '
        /^(type|var|const) \($/ { block = $1; next }
        /^\)$/ { block = ""; next }
        block == "type" && /^\t[A-Z][A-Za-z0-9_]* = / { print $1, f ":" FNR }
        (block == "var" || block == "const") && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) {
            n = split(substr($0, 2, RLENGTH - 1), names, ", ")
            for (i = 1; i <= n; i++) print names[i], f ":" FNR
        }
        /^type [A-Z][A-Za-z0-9_]* = / { print $2, f ":" FNR }
        /^(var|const) [A-Z]/ { match($2, /^[A-Za-z0-9_]*/); print substr($2, 1, RLENGTH), f ":" FNR }
    ' "$f"
done | while read -r name at; do
    printf 'saga/saga.%s\t%s\t1\n' "$name" "$at" >>"$tmp/declared"
    if awk -v name="$name" -v at="$at" '
        FILENAME ":" FNR == at || /^[ \t]*\/\// { next }
        $0 ~ "(^|[^A-Za-z0-9_.]|saga\\.)" name "([^A-Za-z0-9_]|$)" { found = 1; exit }
        END { exit !found }' "${sagafiles[@]}" ||
        grep -qE -- "\<saga\.$name\>" "${otherfiles[@]}" /dev/null; then
        echo "saga/saga.$name" >>"$tmp/reached"
    fi
done
sort -o "$tmp/declared" "$tmp/declared"

# The allowlist: "<symbol> <reason>" a line; blank and # lines ignored.
allow=scripts/reach_allow.txt
if [[ -f "$allow" ]]; then
    grep -vE '^[[:space:]]*(#|$)' "$allow" | awk '{ print $1 }' | sort >"$tmp/allow"
else
    : >"$tmp/allow"
fi

awk -F'\t' '
    FILENAME == ARGV[1] { reached[$1] = 1; next }
    FILENAME == ARGV[2] { allowed[$1] = 1; next }
    {
        declared[$1] = 1
        if ($1 in reached) next
        if ($1 in allowed) { kept++; printf "kept       %s  %s (%d lines)\n", $1, $2, $3; next }
        unreached++; lines += $3
        printf "UNREACHED  %s  %s (%d lines)\n", $1, $2, $3
    }
    END {
        for (s in allowed) {
            if (!(s in declared)) { stale++; printf "STALE      %s  allowlisted, but no such function\n", s }
            else if (s in reached) { stale++; printf "STALE      %s  allowlisted, but a binary reaches it\n", s }
        }
        printf "%d unreached functions and re-exports outside the allowlist (%d lines), %d allowlisted, %d stale entries\n", unreached, lines, kept, stale
        exit unreached + stale > 0
    }' "$tmp/reached" "$tmp/allow" "$tmp/declared"
