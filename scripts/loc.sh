#!/usr/bin/env bash
# loc.sh — Go code lines per package: non-test files, comment-only and
# blank lines left out (the count a simplicity PR's headline is made of).
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

list | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
    if [[ -z "$rev" && ! -f "$f" ]]; then
        continue # tracked, deleted in the working tree
    fi
    n=$(show "$f" | grep -v '^\s*//' | grep -cv '^\s*$' || true)
    echo "$(dirname "$f") $n"
done | awk '{ n[$1] += $2; total += $2 }
    END { for (p in n) printf "%7d  %s\n", n[p], p; printf "%7d  ~total\n", total }' |
    sort -k2 | sed 's/~total/total/'
