#!/usr/bin/env bash
# loc.sh — Go code lines per package: non-test files, comment-only and
# blank lines left out (the count a simplicity PR's headline is made of).
# Below the total, one more line counts the same way over the _test.go
# files outside bench/.
#
# Usage:
#   scripts/loc.sh          # the working tree (tracked and new files)
#   scripts/loc.sh <rev>    # the tree at a revision, e.g. HEAD~1
#
# To compare, run it twice and diff: diff <(scripts/loc.sh HEAD) <(scripts/loc.sh)
set -euo pipefail

cd "$(dirname "$0")/.."

rev="${1:-}"
if [[ -n "$rev" ]]; then
    list() { git ls-tree -r --name-only "$rev"; }
    show() { git show "$rev:$1"; }
else
    list() { git ls-files --cached --others --exclude-standard; }
    show() { cat "$1"; }
fi

gofiles() { # the Go files of the tree, less those deleted in the working tree
    list | grep '\.go$' | while read -r f; do
        if [[ -n "$rev" || -f "$f" ]]; then
            echo "$f"
        fi
    done
}
loc() { # loc <file>: its non-comment, non-blank lines
    show "$1" | grep -v '^\s*//' | grep -cv '^\s*$' || true
}

gofiles | grep -v '_test\.go$' | while read -r f; do
    echo "$(dirname "$f") $(loc "$f")"
done | awk '{ n[$1] += $2; total += $2 }
    END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  ~total\n", total }' |
    sort -k2 | sed 's/~total/total/'

gofiles | grep '_test\.go$' | grep -v '^bench/' | while read -r f; do
    loc "$f"
done | awk '{ total += $1 } END { printf "%7d  tests outside bench/\n", total }'
