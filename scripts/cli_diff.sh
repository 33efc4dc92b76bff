#!/bin/sh
# cli_diff.sh GIT_REF
#
# The byte-for-byte check behind "this change moves no result": builds
# abcsim and examples/quickstart from GIT_REF (a `git archive` export
# into a temporary directory, so neither the working tree nor .git is
# touched) and from the working tree, runs every -exp id of the working
# tree's `-exp list` at -dur 6 and -dur 13, every
# examples/scenarios/*.json (once plain, once with -trace-out, recording
# the SHA-256 of the dump: the flight recorder's bytes must match too),
# the report (`abcsim -report -fast`, then the full `abcsim -report`) and
# the quickstart on both, and diffs the two outputs. A ref from before
# the report moved into abcsim has cmd/abcreport instead; its report
# runs are `abcreport -fast` and `abcreport`, under the same labels.
# Each side runs its own examples/scenarios/*.json, labelled by file
# name: a file whose spelling changed but whose scenario did not reads
# as "same scenario, same bytes", and an edited, added or removed
# example as a difference. The report runs parameter combinations the
# -exp runs never do (fig10 with two users, fig12 at two runs, fig18 on
# a scheme subset) and checks every claim. On a 2-CPU host the full
# report takes about 12 s a side and -fast about 5 s. Nothing is masked: no
# experiment reads the wall clock (TestNoWallClock), so every byte must
# match. Prints each difference and exits 1 if there is any. The golden
# digests alone do not cover this: fig13 and hybrid.json have moved under
# a change with 29/29 of them green.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 <git-ref>" >&2; exit 2; }
ref=$1
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$ref" | tar -x -C "$tmp/src"
for pkg in cmd/abcsim examples/quickstart; do
    (cd "$tmp/src" && go build -o "$tmp/${pkg##*/}.ref" "./$pkg")
    go build -o "$tmp/${pkg##*/}.tree" "./$pkg"
done
if [ -d "$tmp/src/cmd/abcreport" ]; then
    (cd "$tmp/src" && go build -o "$tmp/abcreport.ref" ./cmd/abcreport)
fi

# report SIDE [-fast]: SIDE's report, from abcreport where SIDE has it.
report() {
    side=$1
    shift
    if [ -x "$tmp/abcreport.$side" ]; then
        "$tmp/abcreport.$side" "$@"
    else
        "$tmp/abcsim.$side" -report "$@"
    fi
}

# run_all SIDE ROOT OUTFILE: runs SIDE's (ref or tree) binaries on the
# scenario files under ROOT, SIDE's own checkout. A run that fails prints
# its error into the output like any other line.
run_all() {
    for e in $("$tmp/abcsim.tree" -exp list | awk '{print $1}'); do
        for dur in 6 13; do
            echo "=== -exp $e -dur $dur"
            "$tmp/abcsim.$1" -exp "$e" -dur "$dur" 2>&1 | cat
        done
    done
    for f in "$2"/examples/scenarios/*.json; do
        echo "=== -scenario examples/scenarios/${f##*/}"
        "$tmp/abcsim.$1" -scenario "$f" 2>&1 | cat
    done
    # Both sides dump to the same path, so the recorder's stderr line
    # (event count and path) compares as is.
    for f in "$2"/examples/scenarios/*.json; do
        echo "=== -scenario examples/scenarios/${f##*/} -trace-out (sha256)"
        rm -f "$tmp/dump.jsonl"
        "$tmp/abcsim.$1" -scenario "$f" -trace-out "$tmp/dump.jsonl" 2>&1 >/dev/null | cat
        if [ -f "$tmp/dump.jsonl" ]; then
            sha256sum <"$tmp/dump.jsonl" | cut -d' ' -f1
        fi
    done
    rm -f "$tmp/dump.jsonl"
    echo "=== abcsim -report -fast"
    report "$1" -fast 2>&1 | cat
    echo "=== abcsim -report"
    report "$1" 2>&1 | cat
    echo "=== examples/quickstart"
    "$tmp/quickstart.$1" 2>&1 | cat
} >"$3"

run_all ref "$tmp/src" "$tmp/ref.txt"
run_all tree . "$tmp/tree.txt"

if diff -u "$tmp/ref.txt" "$tmp/tree.txt"; then
    echo "cli_diff: $(grep -c '^===' "$tmp/tree.txt") runs identical to $ref"
else
    echo "cli_diff: output differs from $ref" >&2
    exit 1
fi
