#!/usr/bin/env bash
# Builds the benchmark and the vbserve daemon from this checkout's source,
# then runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash vbbench/run.sh --workload table1-week --seed 42 --seconds 40 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/vbserve" ./cmd/vbserve
(cd vbbench && go build -o "$out/bin/vbbench" .)
exec "$out/bin/vbbench" -vbserve "$out/bin/vbserve" "$@"
