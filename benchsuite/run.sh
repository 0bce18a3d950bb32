#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# every argument passed through. Run it from the repository root:
#
#   bash benchsuite/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and run scratch space all live under
# .bench_build/ in the repository root, so nothing is written elsewhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd benchsuite && go build -o "$out/benchsuite" .)
exec "$out/benchsuite" "$@"
