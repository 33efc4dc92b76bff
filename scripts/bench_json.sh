#!/bin/sh
# bench_json.sh [OUTPUT]
#
# Runs the guarded micro-benchmarks (the bench_thresholds.txt set plus
# the fluid sweep pair) and writes one JSON snapshot — ns/op, B/op,
# allocs/op per benchmark, with enough host metadata (cores, GOMAXPROCS,
# go version, commit) to interpret the numbers. The committed BENCH_*.json
# files are these snapshots: compare two to see a perf PR's effect.
#
# Default output: BENCH_<YYYY-MM-DD>.json in the repo root.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%Y-%m-%d).json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

count="${BENCH_COUNT:-5x}"

go test -run '^$' \
    -bench 'BenchmarkSimCore$|BenchmarkWireFIFO$|BenchmarkEndpointAckClock$|BenchmarkPacketChurn$|BenchmarkForwardHop$|BenchmarkTracedHop$|BenchmarkFIBLookup$|BenchmarkWorkloadChurn$|BenchmarkShardedRun$|BenchmarkHybridBackground$' \
    -benchmem -benchtime "$count" . >"$tmp"
go test -run '^$' -bench 'BenchmarkSweepScalar$|BenchmarkSweepGrid$' \
    -benchmem -benchtime "$count" ./internal/fluid/ >>"$tmp"
go test -run '^$' -bench 'BenchmarkEmit$|BenchmarkEmitDisabled$|BenchmarkCounterAdd$' \
    -benchmem -benchtime "$count" ./internal/obs/ >>"$tmp"

gover="$(go env GOVERSION)"
cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
# GOMAXPROCS defaults to the core count unless overridden in the env.
maxprocs="${GOMAXPROCS:-$cores}"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# A host with fewer cores than GOMAXPROCS oversubscribes the parallel
# benchmarks (sharded runs, worker pools): their numbers measure
# scheduler contention, not the code. Flag the snapshot so nobody
# compares it against a healthy one by accident.
degraded=false
if [ "$cores" -gt 0 ] && [ "$cores" -lt "$maxprocs" ]; then
    degraded=true
    echo "bench_json: WARNING: host has $cores core(s) but GOMAXPROCS=$maxprocs;" \
        "parallel benchmark numbers are degraded and the snapshot is flagged" >&2
fi

awk -v date="$(date +%Y-%m-%d)" -v gover="$gover" -v cores="$cores" \
    -v maxprocs="$maxprocs" -v commit="$commit" -v degraded="$degraded" '
BEGIN {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"cores\": %d,\n", cores
    printf "  \"gomaxprocs\": %d,\n", maxprocs
    if (degraded == "true") printf "  \"degraded\": true,\n"
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"benchmarks\": [\n"
    n = 0
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, ns, (bytes == "" ? 0 : bytes), (allocs == "" ? 0 : allocs)
}
END {
    printf "\n  ]\n}\n"
}' "$tmp" >"$out"

echo "bench_json: wrote $out"
