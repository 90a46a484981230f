#!/bin/sh
# Builds sdvbench from the checkout in the current directory and runs it
# with the given arguments, e.g.
#
#   sh cmd/sdvbench/run.sh --workload paper-sweep --seed 3 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build, so a run reads and writes only inside the checkout, and
# nothing is fetched from the network.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/sdvbench" ./cmd/sdvbench
exec "$out/sdvbench" "$@"
