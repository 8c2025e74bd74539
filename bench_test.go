package orion

// Benchmarks regenerating the paper's evaluation (one per figure; see the
// experiment index in DESIGN.md) plus the design-choice ablations. Each
// figure bench runs the corresponding simulation and reports the headline
// quantities as custom metrics — cycles of latency ("lat-cycles"), watts
// of network power ("power-W") — so `go test -bench` output reads like the
// paper's axes. EXPERIMENTS.md records the full-protocol numbers produced
// by cmd/orion-exp.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// benchSamples keeps per-iteration cost moderate; shapes are stable from a
// few thousand packets (the full protocol uses 10,000 — see cmd/orion-exp).
const benchSamples = 2000

func benchRun(b *testing.B, cfg Config) *Result {
	b.Helper()
	cfg.Sim.SamplePackets = benchSamples
	// InvariantAuto would enable the checker under `go test -bench`;
	// benchmarks measure the production hot path, so force it off.
	cfg.CheckInvariants = InvariantOff
	b.ReportAllocs()
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AvgLatency, "lat-cycles")
	b.ReportMetric(last.TotalPowerW, "power-W")
	return last
}

// --- Figure 5: on-chip wormhole vs virtual-channel (latency 5a, power 5b) ---

func benchFig5(b *testing.B, r RouterConfig, rate float64) {
	benchRun(b, OnChip4x4(r, rate))
}

func BenchmarkFig5WH64(b *testing.B)  { benchFig5(b, WH64(), 0.10) }
func BenchmarkFig5VC16(b *testing.B)  { benchFig5(b, VC16(), 0.10) }
func BenchmarkFig5VC64(b *testing.B)  { benchFig5(b, VC64(), 0.10) }
func BenchmarkFig5VC128(b *testing.B) { benchFig5(b, VC128(), 0.10) }

// Worker-count scaling of the parallel tick kernel on the Fig5 VC64
// configuration (results are bit-identical at every count — see
// TestParallelWorkerCountInvariance — so this measures pure speedup).
// Workers beyond GOMAXPROCS just contend; read these against the core
// count of the bench machine.
func benchFig5VC64Workers(b *testing.B, workers int) {
	cfg := OnChip4x4(VC64(), 0.10)
	cfg.Sim.Workers = workers
	benchRun(b, cfg)
}

func BenchmarkFig5VC64Workers1(b *testing.B) { benchFig5VC64Workers(b, 1) }
func BenchmarkFig5VC64Workers2(b *testing.B) { benchFig5VC64Workers(b, 2) }
func BenchmarkFig5VC64Workers4(b *testing.B) { benchFig5VC64Workers(b, 4) }
func BenchmarkFig5VC64Workers8(b *testing.B) { benchFig5VC64Workers(b, 8) }

// --- 1024-node fabric: worker scaling at the scale the kernel targets ---

// Worker-count scaling on a 32×32 (1024-node) non-wraparound mesh — the
// large-fabric configuration the sharded tick/latch kernel is built for
// (`orion -topology mesh32x32 -workers 8`). Low uniform load (0.005
// packets/node/cycle) keeps the run under the mesh's ~0.0125 bisection
// bound. Results are bit-identical at every worker count
// (TestParallelWorkerInvarianceMesh32), so these measure pure speedup;
// read them against the bench machine's core count — workers beyond
// GOMAXPROCS only contend.
func benchMesh32Workers(b *testing.B, workers int) {
	cfg := OnChipMesh(32, 32, VC8(), 0.005)
	cfg.Sim.Workers = workers
	benchRun(b, cfg)
}

func BenchmarkMesh32VC8Workers1(b *testing.B) { benchMesh32Workers(b, 1) }
func BenchmarkMesh32VC8Workers2(b *testing.B) { benchMesh32Workers(b, 2) }
func BenchmarkMesh32VC8Workers4(b *testing.B) { benchMesh32Workers(b, 4) }
func BenchmarkMesh32VC8Workers8(b *testing.B) { benchMesh32Workers(b, 8) }

// BenchmarkWorkerCutoff times 1 against 2 tick workers on k×k meshes of
// growing size at the same relative load (0.16/k packets/node/cycle, 40%
// of the mesh's ~0.4/k bisection bound; k = 32 is the Mesh32VC8 point).
// Below some node count the parallel kernel's two barriers per cycle
// cost more than sharding saves; these rows locate that crossover, which
// sizes the sequential cutoff auto workers resolve under
// (internal/core/config.go, seqCutoffNodes).
func BenchmarkWorkerCutoff(b *testing.B) {
	for _, k := range []int{4, 8, 16, 20, 24, 32} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("mesh%d/w%d", k, w), func(b *testing.B) {
				cfg := OnChipMesh(k, k, VC8(), 0.16/float64(k))
				cfg.Sim.Workers = w
				benchRun(b, cfg)
			})
		}
	}
}

// --- Activity-gated scheduling: the low-injection regime ---

// At 0.0003 packets/node/cycle — a sweep's left edge, ~2% of the mesh's
// bisection bound — nearly every router is idle nearly every cycle, so
// the active-set scheduler's O(active) tick loop dominates the
// always-tick O(nodes) loop. The AlwaysTick twin pins the reference
// cost; CI asserts the ratio. Results are bit-identical between the two
// modes (TestGatingBitIdentity), so this is pure scheduler overhead.
func benchMesh32LowLoad(b *testing.B, alwaysTick bool) {
	cfg := OnChipMesh(32, 32, VC8(), 0.0003)
	cfg.Sim.Workers = 1
	cfg.Sim.AlwaysTick = alwaysTick
	benchRun(b, cfg)
}

func BenchmarkMesh32VC8LowLoad(b *testing.B)           { benchMesh32LowLoad(b, false) }
func BenchmarkMesh32VC8LowLoadAlwaysTick(b *testing.B) { benchMesh32LowLoad(b, true) }

// BenchmarkFig5VC64LowLoad is the paper's Figure-5 torus far below
// saturation (0.01 vs the 0.10 figure point) — the regime of a latency
// sweep's left edge, where gating trims the 59-module tick loop to the
// handful of modules with flits in flight.
func BenchmarkFig5VC64LowLoad(b *testing.B) { benchFig5(b, VC64(), 0.01) }

// BenchmarkFig5cBreakdown reports VC64's component power split (buffers
// and crossbar dominant, arbiter under 1%, links under ~16%).
func BenchmarkFig5cBreakdown(b *testing.B) {
	res := benchRun(b, OnChip4x4(VC64(), 0.10))
	t := res.TotalPowerW
	b.ReportMetric(100*res.Breakdown.BufferW/t, "buffer-%")
	b.ReportMetric(100*res.Breakdown.CrossbarW/t, "xbar-%")
	b.ReportMetric(100*res.Breakdown.ArbiterW/t, "arbiter-%")
	b.ReportMetric(100*res.Breakdown.LinkW/t, "link-%")
}

// --- Figure 6: power spatial distribution ---

// BenchmarkFig6aUniformMap reports the max/min per-node power ratio under
// uniform random traffic (flat map: ratio near 1).
func BenchmarkFig6aUniformMap(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.2/16)
	res := benchRun(b, cfg)
	lo, hi := res.NodePowerW[0], res.NodePowerW[0]
	for _, w := range res.NodePowerW {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	b.ReportMetric(hi/lo, "max/min-node-power")
}

// BenchmarkFig6bBroadcastMap reports the source node's share of network
// power under broadcast from (1,2) (hot source, decay with distance).
func BenchmarkFig6bBroadcastMap(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.2)
	cfg.Traffic.Pattern = BroadcastFrom(BroadcastNode12)
	res := benchRun(b, cfg)
	b.ReportMetric(res.NodePowerW[BroadcastNode12]/res.TotalPowerW*16, "source-vs-avg")
}

// --- Figure 7: chip-to-chip XB vs CB ---

func benchFig7(b *testing.B, r RouterConfig, rate float64, broadcast bool) *Result {
	cfg := ChipToChip4x4(r, rate)
	if broadcast {
		cfg.Traffic.Pattern = BroadcastFrom(BroadcastNode12)
	}
	return benchRun(b, cfg)
}

// Figures 7(a)/7(b): uniform random latency and power.
func BenchmarkFig7aXB(b *testing.B) { benchFig7(b, XB(), 0.08, false) }
func BenchmarkFig7aCB(b *testing.B) { benchFig7(b, CB(), 0.08, false) }

// Figures 7(d)/7(e): broadcast latency and power.
func BenchmarkFig7dXB(b *testing.B) { benchFig7(b, XB(), 0.10, true) }
func BenchmarkFig7dCB(b *testing.B) { benchFig7(b, CB(), 0.10, true) }

// BenchmarkFig7cXBBreakdown reports the XB component split (links
// dominate chip-to-chip networks).
func BenchmarkFig7cXBBreakdown(b *testing.B) {
	res := benchFig7(b, XB(), 0.06, false)
	b.ReportMetric(100*res.Breakdown.LinkW/res.TotalPowerW, "link-%")
	b.ReportMetric(100*res.Breakdown.BufferW/res.TotalPowerW, "buffer-%")
}

// BenchmarkFig7fCBBreakdown reports the CB component split (the central
// buffer dominates the router's share).
func BenchmarkFig7fCBBreakdown(b *testing.B) {
	res := benchFig7(b, CB(), 0.06, false)
	b.ReportMetric(100*res.Breakdown.LinkW/res.TotalPowerW, "link-%")
	b.ReportMetric(100*res.Breakdown.CentralBufferW/res.TotalPowerW, "central-buffer-%")
	routerOnly := res.TotalPowerW - res.Breakdown.LinkW
	b.ReportMetric(100*res.Breakdown.CentralBufferW/routerOnly, "cb-of-router-%")
}

// --- Ablations (design choices called out in DESIGN.md) ---

func benchAblation(b *testing.B, mutate func(*Config)) {
	cfg := OnChip4x4(VC16(), 0.08)
	mutate(&cfg)
	benchRun(b, cfg)
}

// Arbiter power model: matrix vs round-robin vs queuing (Table 4).
func BenchmarkAblationArbiterMatrix(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.Arbiter = MatrixArbiter })
}
func BenchmarkAblationArbiterRoundRobin(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.Arbiter = RoundRobinArbiter })
}
func BenchmarkAblationArbiterQueuing(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.Arbiter = QueuingArbiter })
}

// Crossbar implementation: crosspoint matrix vs multiplexer tree (Table 3).
func BenchmarkAblationCrossbarMatrix(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.MuxTreeCrossbar = false })
}
func BenchmarkAblationCrossbarMuxTree(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.MuxTreeCrossbar = true })
}

// Switching activity: tracked per-bit Hamming distances (the paper's
// approach) vs the conventional fixed α = 0.5.
func BenchmarkAblationActivityTracked(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.FixedActivity = false })
}
func BenchmarkAblationActivityFixed(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.FixedActivity = true })
}

// Pipeline speculation (Peh & Dally [15]): a speculative VC router bids
// for the switch concurrently with VC allocation, cutting zero-load
// latency from 3 to 2 stages per hop and raising the saturation knee.
func BenchmarkAblationPipelineNonSpeculative(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Router.Speculative = false })
}
func BenchmarkAblationPipelineSpeculative(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Router.Speculative = true })
}

// Torus deadlock avoidance: bubble flow control vs dateline VC classes.
// Dateline halves VC flexibility and saturates far earlier.
func BenchmarkAblationDeadlockBubble(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.Deadlock = DeadlockBubble })
}
func BenchmarkAblationDeadlockDateline(b *testing.B) {
	benchAblation(b, func(c *Config) { c.Sim.Deadlock = DeadlockDateline })
}

// Routing tie-break: always-positive half-ring ties load the + rings with
// 3× the − traffic; source-parity balancing raises every configuration's
// saturation (VC16's knee reaches the paper's reported 0.15).
func BenchmarkAblationTiesPositive(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.14)
	benchRun(b, cfg)
}
func BenchmarkAblationTiesBalanced(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.14)
	cfg.BalancedTieRouting = true
	benchRun(b, cfg)
}

// Link DVS (the paper's cited follow-on [17]): history-based voltage
// scaling trades link power for latency at low load.
func BenchmarkAblationLinkDVSOff(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.02)
	benchRun(b, cfg)
}
func BenchmarkAblationLinkDVSOn(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.02)
	cfg.Link.DVS = &DVSPolicy{}
	res := benchRun(b, cfg)
	b.ReportMetric(res.Breakdown.LinkW, "link-W")
}

// Leakage modelling (Orion 2.0 direction): static power per component.
func BenchmarkAblationLeakage(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.08)
	cfg.Sim.IncludeLeakage = true
	res := benchRun(b, cfg)
	b.ReportMetric(res.StaticPowerW, "static-W")
}

// --- Simulator performance ---

// BenchmarkSimulatorSpeed measures simulated cycles per second for the
// paper's 59-module 4×4 VC torus (the paper reports ~1000 cycles/s on a
// 750 MHz Pentium III).
func BenchmarkSimulatorSpeed(b *testing.B) {
	cfg := OnChip4x4(VC16(), 0.10)
	cfg.Sim.SamplePackets = benchSamples
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.TotalCycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// --- Checkpointing overhead ---

// benchSnapshot runs the Figure-5 VC64 configuration through the Sim API,
// optionally writing a periodic snapshot, so the two benchmarks below
// bound checkpointing's cost: BenchmarkRunNoSnapshot is the baseline (and
// must match plain Run — the disabled hook is one integer compare per
// cycle), BenchmarkRunSnapshotEvery1k pays a full capture + atomic file
// write per 1000 cycles.
func benchSnapshot(b *testing.B, every int64) {
	cfg := OnChip4x4(VC64(), 0.10)
	cfg.Sim.SamplePackets = benchSamples
	cfg.CheckInvariants = InvariantOff
	path := filepath.Join(b.TempDir(), "bench.orsn")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if every > 0 {
			s.SetSnapshotFile(path, every)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunNoSnapshot(b *testing.B)      { benchSnapshot(b, 0) }
func BenchmarkRunSnapshotEvery1k(b *testing.B) { benchSnapshot(b, 1000) }

// --- Component model micro-benchmarks ---

// BenchmarkComponentEnergies measures the cost of deriving a full energy
// report from the capacitance equations.
func BenchmarkComponentEnergies(b *testing.B) {
	cfg := OnChip4x4(VC64(), 0.1)
	for i := 0; i < b.N; i++ {
		if _, err := ComponentEnergies(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep journal: work-queue overhead per point ---

// benchQueueOverhead times journaled sweeps of n points whose runner
// returns a canned result at once, so only the work-queue journal is
// measured: claim and commit records, their fsyncs, and the replay. The
// replay is incremental, so ns/point should not grow with n.
func benchQueueOverhead(b *testing.B, n int) {
	cfg := OnChip4x4(VC16(), 0)
	cfg.Sim.WarmupCycles, cfg.Sim.SamplePackets = 100, 100
	canned, err := RunPoint(context.Background(), cfg, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	run := func(context.Context, Config, float64) (*Result, error) { return canned, nil }
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 0.01 + 0.05*float64(i)/float64(n)
	}
	path := filepath.Join(b.TempDir(), "sweep.wal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{Path: path, Run: run}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
}

func BenchmarkQueueOverhead128(b *testing.B)  { benchQueueOverhead(b, 128) }
func BenchmarkQueueOverhead512(b *testing.B)  { benchQueueOverhead(b, 512) }
func BenchmarkQueueOverhead4096(b *testing.B) { benchQueueOverhead(b, 4096) }
