#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload des-sweeps --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the current directory, and the toolchain
# never reaches the network: the benchmark needs nothing beyond the
# repository and the standard library.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/tmp"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$(dirname "$0")" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
