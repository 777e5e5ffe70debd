#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload compile-corpus --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the traces all stay under .bench_build/,
# and the toolchain is never downloaded: the go on PATH builds it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
