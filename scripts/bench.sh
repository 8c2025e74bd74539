#!/usr/bin/env bash
# bench.sh — record the hot-path benchmark numbers to BENCH_hotpath.json.
#
# Runs the micro-benchmarks guarding the event hot path (Bus.Publish, the
# router tick, the full Figure-5 VC64 run, the Figure-7 chip-to-chip XB
# run and the simulator speed figure) plus the checkpointing overhead pair
# (run with snapshots disabled vs a snapshot every 1000 cycles) and the
# parallel-kernel worker-count scaling sweeps (Fig5 VC64 and the
# 1024-node 32x32 mesh, each at 1/2/4/8 tick workers, plus BenchmarkWorkerCutoff: 1 vs 2 workers on k x k meshes from
# 16 to 1024 nodes, the rows that size the sequential cutoff for auto
# workers in internal/core/config.go), and writes one JSON document with
# ns/op, B/op, allocs/op and the custom metrics (sim-cycles/sec, latency,
# power) per benchmark, plus enough environment metadata to compare runs
# across machines — including the CPU count, without which the
# worker-sweep numbers are meaningless (workers beyond the core count
# only contend).
#
# Usage:
#   scripts/bench.sh [output.json]      # default output: BENCH_hotpath.json
#   BENCHTIME=5s scripts/bench.sh       # longer, steadier measurement
#   WORKERS_SWEEP=0 scripts/bench.sh    # skip the worker-count sweep
#
# On a single-CPU box the worker sweep is skipped automatically (set
# WORKERS_SWEEP=1 to force it): multi-worker benches there measure pure
# goroutine contention, and a baseline recording Workers4 "slowdowns"
# from such a box would mislead every later comparison. The JSON records
# the decision as "scaling" so consumers can tell at a glance whether the
# file carries meaningful multi-worker numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_hotpath.json}"
BENCHTIME="${BENCHTIME:-2s}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
if [ -z "${WORKERS_SWEEP:-}" ]; then
    if [ "$CPUS" -le 1 ]; then
        echo "bench: $CPUS CPU(s) online — skipping the worker-count sweep (WORKERS_SWEEP=1 to force)"
        WORKERS_SWEEP=0
    else
        WORKERS_SWEEP=1
    fi
fi
SCALING=false
[ "$WORKERS_SWEEP" != "0" ] && SCALING=true

{
    go test ./internal/sim -run '^$' -bench 'BenchmarkBusPublish' -benchtime "$BENCHTIME" -benchmem
    go test ./internal/router -run '^$' -bench 'BenchmarkRouterTick' -benchtime "$BENCHTIME" -benchmem
    go test . -run '^$' -bench 'BenchmarkFig5VC64$|BenchmarkFig5VC64LowLoad$|BenchmarkFig7aXB$|BenchmarkSimulatorSpeed$|BenchmarkRunNoSnapshot$|BenchmarkRunSnapshotEvery1k$|BenchmarkMesh32VC8Workers1$|BenchmarkMesh32VC8LowLoad$|BenchmarkMesh32VC8LowLoadAlwaysTick$' -benchtime "$BENCHTIME" -benchmem
    if [ "$WORKERS_SWEEP" != "0" ]; then
        go test . -run '^$' -bench 'BenchmarkFig5VC64Workers[1248]$|BenchmarkMesh32VC8Workers[248]$|BenchmarkWorkerCutoff' -benchtime "$BENCHTIME" -benchmem
    fi
} | tee "$RAW"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go version | cut -d' ' -f3)" \
    -v benchtime="$BENCHTIME" \
    -v cpus="$CPUS" \
    -v scaling="$SCALING" '
BEGIN {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"cpus\": %d,\n", cpus
    printf "  \"scaling\": %s,\n", scaling
    printf "  \"benchmarks\": [\n"
    sep = ""
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    printf "%s    {\"name\": \"%s\", \"iterations\": %s", sep, name, $2
    # Remaining fields come in value/unit pairs: 20.3 ns/op, 0 allocs/op,
    # 42143 cycles/s, ... — each becomes a key in the JSON object.
    for (i = 3; i < NF; i += 2) {
        printf ", \"%s\": %s", $(i + 1), $i
    }
    printf "}"
    sep = ",\n"
}
END {
    printf "\n  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
