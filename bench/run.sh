#!/bin/sh
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# The Go build cache lives there too, so nothing outside the checkout is
# read or written; GOFLAGS=-mod=mod and GOTOOLCHAIN=local keep the go
# command from reaching for the network.
set -eu
here="$(dirname "$0")"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$out/abcbench" . >&2
exec "$out/abcbench" "$@"
