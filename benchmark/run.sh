#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload redis-lru --seed 1 --seconds 20 --trace 0
#
# The binary and Go's build cache, module cache, temporary files and
# telemetry all stay in .bench_build/ under the current directory. Nothing
# is fetched: the benchmark's module depends only on the repository next
# to it, and the local toolchain builds it.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
