#!/bin/sh
# cli_diff.sh GIT_REF
#
# The byte-for-byte check behind "this change moves no result": builds
# abcsim from GIT_REF (a `git archive` export into a temporary directory,
# so neither the working tree nor .git is touched) and from the working
# tree, runs every -exp id of the working tree's `-exp list` at -dur 6
# and -dur 13 plus every examples/scenarios/*.json on both, and diffs the
# two outputs. Only `-exp hybrid`'s last column is masked — it is wall
# clock, different on every run by design. Prints each difference and
# exits 1 if there is any. The golden digests alone do not cover this:
# fig13 and hybrid.json have moved under a change with 29/29 of them
# green.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 <git-ref>" >&2; exit 2; }
ref=$1
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/abcsim.ref" ./cmd/abcsim)
go build -o "$tmp/abcsim.tree" ./cmd/abcsim

# mask EXP: a filter hiding what may differ between two runs of EXP.
mask() {
    if [ "$1" = hybrid ]; then
        sed -E 's/[[:space:]]+[0-9.]+(ns|µs|ms|s)$/ WALL/'
    else
        cat
    fi
}

# run_all BINARY OUTFILE: scenario paths are relative to the working
# tree, so both binaries read the same files. A run that fails prints its
# error into the output like any other line.
run_all() {
    for e in $("$tmp/abcsim.tree" -exp list | awk '{print $1}'); do
        for dur in 6 13; do
            echo "=== -exp $e -dur $dur"
            "$1" -exp "$e" -dur "$dur" 2>&1 | mask "$e"
        done
    done
    for f in examples/scenarios/*.json; do
        echo "=== -scenario $f"
        "$1" -scenario "$f" 2>&1 | cat
    done
} >"$2"

run_all "$tmp/abcsim.ref" "$tmp/ref.txt"
run_all "$tmp/abcsim.tree" "$tmp/tree.txt"

if diff -u "$tmp/ref.txt" "$tmp/tree.txt"; then
    echo "cli_diff: $(grep -c '^===' "$tmp/tree.txt") runs identical to $ref"
else
    echo "cli_diff: output differs from $ref" >&2
    exit 1
fi
