#!/usr/bin/env bash
# Builds the benchmark and the eved daemon from this checkout into
# .bench_build (build cache included, so nothing is written outside the
# checkout), then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload route-adhoc --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -o "$out/eved" ./cmd/eved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -eved "$out/eved" -out "$out" "$@"
