package stats

import "orion/internal/sim"

// MergeCounts sums the per-type event counters of the given buses — one
// per tick worker's shard — into one table. Counter addition is
// order-independent over int64, and the shard order is fixed by
// construction anyway, so the merged table is identical to the single
// bus of a one-worker run at every worker count. Measurement boundaries
// (warm-up end, run end, snapshot capture) merge through this function so
// event counts, results and snapshots never expose the shard structure.
func MergeCounts(buses []*sim.Bus) [sim.NumEventTypes]int64 {
	var out [sim.NumEventTypes]int64
	for _, b := range buses {
		counts := b.Snapshot()
		for t := range out {
			out[t] += counts[t]
		}
	}
	return out
}
