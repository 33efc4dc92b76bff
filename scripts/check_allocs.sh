#!/bin/sh
# check_allocs.sh [THRESHOLD_FILE]
#
# Runs every benchmark named in the threshold file (default
# bench_thresholds.txt — the file is the one list of guarded benchmarks;
# the -bench pattern is built from it) with -benchmem and fails (exit 1)
# if any reports more allocs/op than its committed maximum, or is
# missing from the output entirely. Keeps the zero-alloc event core and
# packet free-lists from silently rotting.
set -eu

cd "$(dirname "$0")/.."

thresholds="${1:-bench_thresholds.txt}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

# Sub-benchmark rows (BenchmarkShardedRun/shards=1) select their parent.
pattern=$(awk '!/^#/ && NF { sub(/\/.*/, "", $1); if (!seen[$1]++) { printf "%s^%s$", sep, $1; sep = "|" } }' "$thresholds")
go test -run '^$' -bench "$pattern" -benchmem -benchtime 3x . | tee "$out"

fail=0
while read -r name max; do
    case "$name" in ''|\#*) continue ;; esac
    # Benchmark lines look like:
    #   BenchmarkSimCore    3    8706 ns/op    0 B/op    0 allocs/op
    # (the name may carry a -N GOMAXPROCS suffix).
    line=$(grep -E "^${name}(-[0-9]+)?[[:space:]]" "$out" | head -1 || true)
    if [ -z "$line" ]; then
        echo "check_allocs: $name missing from benchmark output" >&2
        fail=1
        continue
    fi
    got=$(echo "$line" | awk '{for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}')
    if [ -z "$got" ]; then
        echo "check_allocs: $name has no allocs/op column (run with -benchmem)" >&2
        fail=1
        continue
    fi
    if [ "$got" -gt "$max" ]; then
        echo "check_allocs: $name allocs/op regressed: $got > $max (committed max)" >&2
        fail=1
    else
        echo "check_allocs: $name ok: $got <= $max allocs/op"
    fi
done < "$thresholds"

exit $fail
