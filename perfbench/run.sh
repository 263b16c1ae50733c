#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload inproc-coded --seed 1 --seconds 10 --trace 0
#
# Build cache, binary and the run's scratch files (WAL directories, CPU
# profile) stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
