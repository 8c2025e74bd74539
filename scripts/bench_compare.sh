#!/usr/bin/env bash
# bench_compare.sh — hot-path performance regression gate.
#
# Re-runs the benchmarks that guard the event hot path and compares each
# ns/op figure against the committed baseline in BENCH_hotpath.json (the
# file scripts/bench.sh writes). The gate fails — exit 1, offenders
# listed — when any gated benchmark is more than BENCH_TOLERANCE_PCT
# slower than its baseline. Benchmarks present in only one of the two
# sets are surfaced as explicit WARNINGs — both a new benchmark with no
# baseline yet, and a gated benchmark whose baseline exists but which
# this run failed to produce (renamed, deleted, or its package broke) —
# but never fail the gate, so adding a new benchmark does not require
# regenerating the baseline in the same change.
#
# Gated benchmarks (ns/op only; B/op and allocs/op are locked down
# exactly by TestRouterTickZeroAlloc, TestRunAllocationBudget and
# TestParallelAllocationBudget):
#   BenchmarkRouterTickWormhole / VC / CB     router tick hot path
#   BenchmarkFig5VC64 / Fig5VC64LowLoad       full Figure-5 run, both loads
#   BenchmarkSimulatorSpeed                   end-to-end cycles/sec
#   BenchmarkRunNoSnapshot / SnapshotEvery1k  checkpointing overhead
#   BenchmarkMesh32VC8Workers1                1024-node fabric, sequential
#   BenchmarkMesh32VC8LowLoad                 activity-gated sub-saturation run
#
# BenchmarkFig5VC64 and BenchmarkSimulatorSpeed leave Workers at auto,
# which on its own resolves to the box's core count: a 1-CPU baseline
# would run them sequentially and a multi-core runner at 2-8 tick
# workers. Their 16-node torus sits far below the one-worker cutoff for
# auto workers (internal/core/config.go, seqCutoffNodes), so every box
# runs them on one worker and the gate compares like with like.
#
# The multi-worker sweeps (Fig5VC64Workers*, Mesh32VC8Workers[248],
# WorkerCutoff) are recorded in the baseline for scaling analysis but not
# gated: their ns/op depends on the core count of the machine, so
# comparing them across boxes is noise, not signal. As a backstop, any gate entry
# matching Workers[2-9] is refused — skipped with a WARNING — when the
# baseline records a single-CPU box ("cpus" <= 1): a 1-CPU baseline for
# a parallel bench measures contention, and gating against it would
# punish the first run on a real multicore machine.
#
# Usage:
#   scripts/bench_compare.sh [baseline.json]   # default: BENCH_hotpath.json
#   BENCH_TOLERANCE_PCT=25 scripts/bench_compare.sh   # looser gate (noisy CI)
#   BENCHTIME=2s scripts/bench_compare.sh             # steadier measurement
#
# After an intentional perf change, refresh the baseline with
# scripts/bench.sh and commit the new BENCH_hotpath.json.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-BENCH_hotpath.json}"
TOL="${BENCH_TOLERANCE_PCT:-15}"
BENCHTIME="${BENCHTIME:-1s}"

if [ ! -f "$BASE" ]; then
    echo "bench_compare: baseline $BASE not found (run scripts/bench.sh first)" >&2
    exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

{
    go test ./internal/router -run '^$' -bench 'BenchmarkRouterTick' -benchtime "$BENCHTIME"
    go test . -run '^$' -bench 'BenchmarkFig5VC64$|BenchmarkFig5VC64LowLoad$|BenchmarkSimulatorSpeed$|BenchmarkRunNoSnapshot$|BenchmarkRunSnapshotEvery1k$|BenchmarkMesh32VC8Workers1$|BenchmarkMesh32VC8LowLoad$' -benchtime "$BENCHTIME"
} | tee "$RAW"

echo
echo "=== bench gate: current vs $BASE (tolerance ${TOL}%) ==="

# Baseline entries are one JSON object per line inside the "benchmarks"
# array; pull the name and ns/op out of each. Current numbers come from
# the raw `go test -bench` lines above. Compare only names in the gate
# list that appear in both sets.
awk -v tol="$TOL" '
BEGIN {
    ngate = split("BenchmarkRouterTickWormhole BenchmarkRouterTickVC " \
                  "BenchmarkRouterTickCB BenchmarkFig5VC64 " \
                  "BenchmarkFig5VC64LowLoad " \
                  "BenchmarkSimulatorSpeed BenchmarkRunNoSnapshot " \
                  "BenchmarkRunSnapshotEvery1k BenchmarkMesh32VC8Workers1 " \
                  "BenchmarkMesh32VC8LowLoad", \
                  gatelist, " ")
    for (i = 1; i <= ngate; i++) gate[gatelist[i]] = 1
    fails = 0
    missing = 0
    basecpus = -1
}
# Pass 1: the baseline JSON.
FNR == NR {
    if (match($0, /"cpus": [0-9]+/))
        basecpus = substr($0, RSTART + 8, RLENGTH - 8) + 0
    if (match($0, /"name": "[^"]+"/)) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns\/op": [0-9.eE+-]+/))
            base[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
    }
    next
}
# Pass 2: raw benchmark output. Fields: Name-N  iterations  ns  ns/op  ...
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") { cur[name] = $i + 0; break }
    }
}
END {
    printf "%-34s %14s %14s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta"
    for (i = 1; i <= ngate; i++) {
        name = gatelist[i]
        if (name ~ /Workers[2-9]/ && basecpus >= 0 && basecpus <= 1) {
            printf "%-34s %14s %14s %9s\n", name, "-", "-", "skipped"
            printf "WARNING: refusing to gate parallel benchmark %s against a baseline recorded\n", name
            printf "         on a %d-CPU box — its numbers there measure contention, not speed\n", basecpus
            continue
        }
        if (!(name in base)) {
            printf "%-34s %14s %14s %9s\n", name, "-", (name in cur ? sprintf("%.1f", cur[name]) : "-"), "no base"
            continue
        }
        if (!(name in cur)) {
            printf "%-34s %14.1f %14s %9s\n", name, base[name], "-", "not run"
            printf "WARNING: gated benchmark %s has a baseline but was not produced by this run —\n", name
            printf "         it was renamed, deleted, or its package failed to build; the gate cannot cover it\n"
            missing++
            continue
        }
        delta = (cur[name] - base[name]) * 100.0 / base[name]
        verdict = ""
        if (delta > tol) { verdict = "  <-- REGRESSION"; fails++ }
        printf "%-34s %14.1f %14.1f %+8.1f%%%s\n", name, base[name], cur[name], delta, verdict
    }
    # Benchmarks this run produced that the committed baseline has never
    # seen: warn, never fail — the baseline catches up at the next
    # scripts/bench.sh refresh.
    for (name in cur) {
        if (!(name in gate) && !(name in base))
            printf "WARNING: %s not in baseline (new benchmark?) — ignored by the gate\n", name
    }
    if (fails > 0) {
        printf "\nbench gate FAILED: %d benchmark(s) regressed more than %s%% in ns/op.\n", fails, tol
        printf "If the slowdown is intentional, refresh the baseline: scripts/bench.sh\n"
        exit 1
    }
    if (missing > 0)
        printf "\nbench gate OK with %d WARNING(s): some gated benchmarks were not measured (see above).\n", missing
    else
        printf "\nbench gate OK: no ns/op regression beyond %s%%.\n", tol
}' "$BASE" "$RAW"
