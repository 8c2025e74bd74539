package orion

import (
	"runtime"
	"testing"
)

// TestRunAllocationBudget pins the whole-run allocation cost (build +
// warm-up + 2000-sample measurement) of the Figure-5 VC64 configuration
// and of the Figure-7 chip-to-chip XB crossbar. The packet free list
// recycles a retired packet's record, flit structs and payload backing
// into the next generation, which cut a VC64 run from ~32,700
// allocations / 3.7 MB to ~18,700 / 1.6 MB. Building each power model
// once per network instead of once per arbiter cut it to ~18,050 /
// 1.42 MB, and flat buffer mirrors and bitboard arbiters to ~15,200 /
// 1.26 MB. XB's 268-flit buffers cost 12.8 MB per run while each
// mirrored buffer row was its own slice; one flat array per buffer
// brought that to ~4.35 MB. The budgets below sit ~30% above the
// measured cost so incidental churn passes but a reintroduced
// per-packet, per-cycle or per-row allocation path fails loudly.
func TestRunAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		maxAllocs uint64
		maxBytes  uint64
	}{
		{"VC64", OnChip4x4(VC64(), 0.10), 19_800, 1_650_000},
		{"XB chip-to-chip", ChipToChip4x4(XB(), 0.08), 23_000, 5_650_000},
	} {
		cfg := tc.cfg
		cfg.Sim.SamplePackets = benchSamples
		// The invariant checker is auto-enabled under `go test` and
		// keeps its own per-packet ledger; this test measures the
		// production path.
		cfg.CheckInvariants = InvariantOff

		run := func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the runtime (lazy init, map growth in the scheduler)

		prev := runtime.GOMAXPROCS(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(prev)

		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d allocs / %d B", tc.name, allocs, bytes)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: full run allocated %d objects, budget %d", tc.name, allocs, tc.maxAllocs)
		}
		if bytes > tc.maxBytes {
			t.Errorf("%s: full run allocated %d heap bytes, budget %d", tc.name, bytes, tc.maxBytes)
		}
	}
}

// TestParallelAllocationBudget pins the parallel engine's allocation
// overhead over the identical sequential run. The per-worker structures —
// shard buses, latch trackers, sink pending lists, module shards — cost
// ~15 KB and ~230 objects at 8 workers on the Figure-5 VC64 run; the
// budgets below allow roughly 4× that. The meter's frozen event tables
// are shared across the shard buses (stats.Meter.AttachBuses), which is
// what keeps this delta flat: one dense table per bus cost +170 KB at 8
// workers. Steady-state per-cycle work (dirty-wire lists, counter merges,
// pending lists) is preallocated, so any per-cycle or per-packet
// allocation introduced on the parallel path fails this loudly.
func TestParallelAllocationBudget(t *testing.T) {
	const (
		maxExtraAllocs = 1_000
		maxExtraBytes  = 64_000
	)
	measure := func(workers int) (allocs, bytes uint64) {
		cfg := OnChip4x4(VC64(), 0.10)
		cfg.Sim.SamplePackets = benchSamples
		cfg.CheckInvariants = InvariantOff
		cfg.Sim.Workers = workers
		run := func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the runtime and the worker pool machinery
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seqAllocs, seqBytes := measure(1)
	parAllocs, parBytes := measure(8)
	t.Logf("workers=1: %d allocs / %d B; workers=8: %d allocs / %d B",
		seqAllocs, seqBytes, parAllocs, parBytes)
	if parAllocs > seqAllocs+maxExtraAllocs {
		t.Errorf("8-worker run allocated %d objects, sequential %d, budget +%d",
			parAllocs, seqAllocs, maxExtraAllocs)
	}
	if parBytes > seqBytes+maxExtraBytes {
		t.Errorf("8-worker run allocated %d heap bytes, sequential %d, budget +%d",
			parBytes, seqBytes, maxExtraBytes)
	}
}
