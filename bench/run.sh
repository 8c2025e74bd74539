#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload fig5-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, the binary,
# the journals and caches the workloads create, and the trace files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/home/go" HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache"
# The module has no dependencies to fetch: never reach for the network
# or another toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go -C bench build -o "$out/orion-bench" .
exec "$out/orion-bench" "$@"
