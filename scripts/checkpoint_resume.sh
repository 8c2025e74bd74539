#!/usr/bin/env bash
# checkpoint_resume.sh — end-to-end crash/resume equivalence check.
#
# Builds orion-sweep, records a clean (uninterrupted) sweep's CSV, then
# repeats the sweep with the write-ahead journal enabled, SIGKILLs the
# process once the journal shows at least two completed points (two
# "done" records; claims do not count), resumes with -resume, and
# requires the resumed CSV to be byte-identical to the clean one. The
# resumed run re-runs the points the killed process held once their
# claims' leases (-lease, 5 s by default) expire. This is the CI gate for the checkpoint/resume guarantee:
# a kill -9 mid-sweep must lose nothing but the points in flight, and a
# resumed curve must be indistinguishable from one that never crashed.
#
# Usage: scripts/checkpoint_resume.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/orion-sweep" ./cmd/orion-sweep

# Enough samples that each point runs for seconds, so the SIGKILL lands
# while most of the sweep is still in flight.
ARGS=(-preset vc16 -samples 60000 -rates 0.02,0.04,0.06,0.08,0.10,0.12)

echo "== clean run"
"$WORK/orion-sweep" "${ARGS[@]}" -csv "$WORK/clean.csv" > "$WORK/clean.out"

# done_points counts the completed points recorded in the journal.
done_points() {
    if [ -f "$WORK/sweep.jsonl" ]; then
        grep -c '"t":"done"' "$WORK/sweep.jsonl" || true
    else
        echo 0
    fi
}

echo "== crashy run (SIGKILL after >= 2 journaled points)"
"$WORK/orion-sweep" "${ARGS[@]}" -journal "$WORK/sweep.jsonl" \
    > "$WORK/crashed.out" 2>&1 &
PID=$!
for _ in $(seq 1 600); do
    if ! kill -0 "$PID" 2>/dev/null; then
        break
    fi
    if [ "$(done_points)" -ge 2 ]; then
        break
    fi
    sleep 0.2
done
if kill -9 "$PID" 2>/dev/null; then
    wait "$PID" 2>/dev/null || true
    echo "killed sweep with $(done_points) journaled points"
else
    wait "$PID" 2>/dev/null || true
    echo "note: sweep finished before the kill; resume degenerates to a pure journal merge" >&2
fi

echo "== resumed run"
"$WORK/orion-sweep" "${ARGS[@]}" -journal "$WORK/sweep.jsonl" -resume \
    -csv "$WORK/resumed.csv" | tee "$WORK/resumed.out"
if ! grep -q "journal: resuming" "$WORK/resumed.out"; then
    echo "FAIL: resume did not pick up the journal" >&2
    exit 1
fi

if ! diff "$WORK/clean.csv" "$WORK/resumed.csv"; then
    echo "FAIL: resumed CSV differs from the uninterrupted run" >&2
    exit 1
fi
echo "PASS: resumed sweep is byte-identical to the uninterrupted run"
