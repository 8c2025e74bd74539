package core

import (
	"math"
	"strings"
	"testing"

	"orion/internal/power"
	"orion/internal/router"
	"orion/internal/stats"
	"orion/internal/tech"
	"orion/internal/topology"
	"orion/internal/traffic"
)

// testConfig returns a small, fast 4×4 torus VC16-style configuration.
func testConfig(t *testing.T, rate float64) Config {
	t.Helper()
	topo, err := topology.New([]int{4, 4}, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	p := tech.Default()
	return Config{
		Topology: topo,
		Router: router.Config{
			Kind:        router.VirtualChannel,
			Ports:       5,
			VCs:         2,
			BufferDepth: 8,
			FlitBits:    64,
		},
		Link: power.LinkConfig{
			Kind:      power.OnChipLink,
			WidthBits: 64,
			LengthUm:  3000,
		},
		Tech: p,
		Traffic: traffic.Config{
			Pattern:      traffic.Uniform{Nodes: 16},
			Rates:        traffic.UniformRates(16, rate),
			PacketLength: 5,
			FlitBits:     64,
			Seed:         11,
		},
		WarmupCycles:  300,
		SamplePackets: 400,
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, 0.05)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil topology", func(c *Config) { c.Topology = nil }},
		{"port mismatch", func(c *Config) { c.Router.Ports = 4 }},
		{"link width mismatch", func(c *Config) { c.Link.WidthBits = 32 }},
		{"traffic width mismatch", func(c *Config) { c.Traffic.FlitBits = 32 }},
		{"bad tech", func(c *Config) { c.Tech.Vdd = 0 }},
		{"bad router", func(c *Config) { c.Router.BufferDepth = 0 }},
		{"bad traffic", func(c *Config) { c.Traffic.PacketLength = 0 }},
		{"dateline odd VCs on torus", func(c *Config) { c.Deadlock = DeadlockDateline; c.Router.VCs = 3 }},
		{"bubble shallow VC buffer on torus", func(c *Config) { c.Router.BufferDepth = 4 }},
		{"wormhole shallow buffer on torus", func(c *Config) {
			c.Router.Kind = router.Wormhole
			c.Router.VCs = 1
			c.Router.BufferDepth = 8 // < 2×5
		}},
	}
	for _, tc := range cases {
		c := testConfig(t, 0.05)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
		if _, err := Build(c); err == nil {
			t.Errorf("%s: Build accepted invalid config", tc.name)
		}
	}
}

func TestVCTorusRun(t *testing.T) {
	res, err := RunConfig(testConfig(t, 0.05))
	if err != nil {
		t.Fatalf("RunConfig: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets, want 400", res.SamplePackets)
	}
	// Zero-load-ish latency on a 4×4 torus with a 3-stage pipeline and
	// 5-flit packets: roughly 10–40 cycles at 5% load.
	if res.AvgLatency < 8 || res.AvgLatency > 60 {
		t.Errorf("average latency = %.1f cycles, outside sane range", res.AvgLatency)
	}
	if res.MinLatency <= 0 || res.MaxLatency < res.AvgLatency {
		t.Errorf("latency bounds wrong: min %.1f max %.1f avg %.1f",
			res.MinLatency, res.MaxLatency, res.AvgLatency)
	}
	if res.EnergyJ <= 0 || res.TotalPowerW <= 0 {
		t.Error("no energy recorded")
	}
	if res.EjectedFlits <= 0 || res.InjectedFlits <= 0 {
		t.Error("no flits counted")
	}
	// Throughput at 5% injection of 5-flit packets ≈ 0.25 flits/node/cycle.
	if res.AcceptedFlitsPerNodeCycle < 0.15 || res.AcceptedFlitsPerNodeCycle > 0.35 {
		t.Errorf("accepted throughput = %.3f flits/node/cycle, want ≈0.25", res.AcceptedFlitsPerNodeCycle)
	}
	// Component sanity (Figure 5(c) shape): buffers+crossbar dominate,
	// arbiters are tiny.
	bufXbar := res.ComponentPowerW[stats.CompBuffer] + res.ComponentPowerW[stats.CompCrossbar]
	if bufXbar <= res.ComponentPowerW[stats.CompLink] {
		t.Error("buffer+crossbar power should exceed link power on-chip")
	}
	if res.ComponentPowerW[stats.CompArbiter] >= 0.05*res.TotalPowerW {
		t.Errorf("arbiter power %.3g W should be well under 5%% of %.3g W",
			res.ComponentPowerW[stats.CompArbiter], res.TotalPowerW)
	}
	if got := len(res.NodePowerW); got != 16 {
		t.Errorf("node power vector has %d entries", got)
	}
	var sum float64
	for _, w := range res.NodePowerW {
		sum += w
	}
	if math.Abs(sum-res.TotalPowerW)/res.TotalPowerW > 1e-9 {
		t.Error("node powers do not sum to total")
	}
}

func TestWormholeTorusRun(t *testing.T) {
	cfg := testConfig(t, 0.05)
	cfg.Router.Kind = router.Wormhole
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 16
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("RunConfig: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets, want 400", res.SamplePackets)
	}
	if res.AvgLatency < 6 || res.AvgLatency > 60 {
		t.Errorf("wormhole latency = %.1f, outside sane range", res.AvgLatency)
	}
}

func TestCentralBufferedTorusRun(t *testing.T) {
	cfg := testConfig(t, 0.04)
	cfg.Router.Kind = router.CentralBuffered
	cfg.Router.VCs = 1
	cfg.Router.BufferDepth = 16
	cfg.Router.CBBanks = 4
	cfg.Router.CBRows = 64
	cfg.Router.CBReadPorts = 2
	cfg.Router.CBWritePorts = 2
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("RunConfig: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets, want 400", res.SamplePackets)
	}
	if res.ComponentPowerW[stats.CompCentralBuffer] <= 0 {
		t.Error("central buffer consumed no energy")
	}
	if res.ComponentPowerW[stats.CompCrossbar] != 0 {
		t.Error("CB router should have no main-crossbar energy")
	}
}

func TestMeshRun(t *testing.T) {
	cfg := testConfig(t, 0.04)
	topo, err := topology.New([]int{4, 4}, false, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("RunConfig on mesh: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets, want 400", res.SamplePackets)
	}
}

func TestZeroLoadLatency(t *testing.T) {
	zl, err := ZeroLoadLatency(testConfig(t, 0.10))
	if err != nil {
		t.Fatal(err)
	}
	// Analytical ballpark: avg 2 hops → 3 routers ≈ 3×3 cycles + 2 links
	// + injection/ejection wires + 4 serialization ≈ 17.
	if zl < 10 || zl > 30 {
		t.Errorf("zero-load latency = %.1f, want ≈17", zl)
	}
	// Latency at high load must exceed zero-load.
	res, err := RunConfig(testConfig(t, 0.12))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= zl {
		t.Errorf("loaded latency %.1f should exceed zero-load %.1f", res.AvgLatency, zl)
	}
}

// TestZeroLoadLatencyReusesGuards: the probe copies the caller's config
// wholesale, so a MaxCycles too small for even the light probe must surface
// as the caller's own abort diagnostic instead of spinning to an unrelated
// limit.
func TestZeroLoadLatencyReusesGuards(t *testing.T) {
	cfg := testConfig(t, 0.10)
	cfg.MaxCycles = 250 // probe warm-up alone is 200 cycles
	_, err := ZeroLoadLatency(cfg)
	if err == nil || !strings.Contains(err.Error(), "zero-load run") {
		t.Errorf("expected the caller's MaxCycles abort wrapped as a zero-load error, got %v", err)
	}

	// The probe overrides only intensity and sample size: with sane guards
	// it succeeds even when the caller's rate is deep past saturation.
	sat := testConfig(t, 0.95)
	zl, err := ZeroLoadLatency(sat)
	if err != nil {
		t.Fatalf("probe at ZeroLoadProbeRate should not saturate: %v", err)
	}
	if zl < 10 || zl > 30 {
		t.Errorf("zero-load latency = %.1f, want ≈17", zl)
	}
}

func TestBroadcastHotspot(t *testing.T) {
	cfg := testConfig(t, 0)
	src := 9 // (1,2) in the paper's coordinates
	cfg.Traffic.Pattern = &traffic.Broadcast{Nodes: 16, Source: src}
	cfg.Traffic.Rates = traffic.SingleSourceRates(16, src, 0.15)
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6(b): the source node consumes the most power.
	for n, w := range res.NodePowerW {
		if n != src && w >= res.NodePowerW[src] {
			t.Errorf("node %d power %.3g ≥ source power %.3g", n, w, res.NodePowerW[src])
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := RunConfig(testConfig(t, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConfig(testConfig(t, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.EnergyJ != b.EnergyJ || a.TotalCycles != b.TotalCycles {
		t.Errorf("simulation is not deterministic: %.6f/%.6f, %g/%g",
			a.AvgLatency, b.AvgLatency, a.EnergyJ, b.EnergyJ)
	}
}

func TestFixedActivityAblation(t *testing.T) {
	tracked, err := RunConfig(testConfig(t, 0.06))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 0.06)
	cfg.FixedActivity = true
	fixed, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tracked.EnergyJ == fixed.EnergyJ {
		t.Error("fixed-activity ablation should change the energy")
	}
	// Same traffic: identical performance.
	if tracked.AvgLatency != fixed.AvgLatency {
		t.Error("activity model must not affect performance")
	}
	// Random payloads average α≈0.5, so the two should agree loosely.
	ratio := tracked.EnergyJ / fixed.EnergyJ
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("tracked/fixed energy ratio = %.2f, want within [0.5, 2]", ratio)
	}
}

func TestMaxCyclesAbort(t *testing.T) {
	cfg := testConfig(t, 0.05)
	cfg.MaxCycles = 400 // warmup is 300: cannot finish 400 packets
	_, err := RunConfig(cfg)
	if err == nil || !strings.Contains(err.Error(), "sample packets") {
		t.Errorf("expected MaxCycles abort, got %v", err)
	}
}

func TestChipToChipConstantLinkPower(t *testing.T) {
	cfg := testConfig(t, 0.04)
	cfg.Link = power.LinkConfig{Kind: power.ChipToChipLink, WidthBits: 64, ConstantWatts: 3}
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 nodes × 5 links × 3 W = 240 W floor regardless of traffic.
	if res.Power.NodeConstWatts[0] != 15 {
		t.Errorf("per-node constant link power = %g, want 15", res.Power.NodeConstWatts[0])
	}
	if res.TotalPowerW < 240 {
		t.Errorf("total power %.1f W should include the 240 W link floor", res.TotalPowerW)
	}
	// Links dominate (Figure 7(c): >70%).
	if res.ComponentPowerW[stats.CompLink] < 0.7*res.TotalPowerW {
		t.Errorf("link share = %.0f%%, want >70%%",
			100*res.ComponentPowerW[stats.CompLink]/res.TotalPowerW)
	}
}

// TestLargerNetwork: the simulator scales beyond the paper's 4×4 (an 8×8
// torus, 64 nodes).
func TestLargerNetwork(t *testing.T) {
	topo, err := topology.New([]int{8, 8}, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 0.03)
	cfg.Topology = topo
	cfg.Traffic.Pattern = traffic.Uniform{Nodes: 64}
	cfg.Traffic.Rates = traffic.UniformRates(64, 0.03)
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("8x8 run: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
	// Longer average paths than 4×4: latency higher than the small net's
	// zero-load but still sane.
	if res.AvgLatency < 15 || res.AvgLatency > 120 {
		t.Errorf("8x8 latency = %.1f, implausible", res.AvgLatency)
	}
	if len(res.NodePowerW) != 64 {
		t.Errorf("node power vector has %d entries", len(res.NodePowerW))
	}
}

// TestNonUniformPatterns runs every extension traffic pattern end to end.
func TestNonUniformPatterns(t *testing.T) {
	patterns := map[string]traffic.Pattern{
		"transpose": traffic.Transpose{Width: 4},
		"bitcomp":   traffic.BitComplement{Nodes: 16},
		"tornado":   traffic.Tornado{Width: 4, Height: 4},
		"hotspot":   traffic.Hotspot{Nodes: 16, Hot: 5, Fraction: 0.3},
		"neighbor":  traffic.Neighbor{Width: 4, Height: 4},
	}
	for name, p := range patterns {
		cfg := testConfig(t, 0.04)
		cfg.Traffic.Pattern = p
		res, err := RunConfig(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.SamplePackets != 400 {
			t.Errorf("%s measured %d packets", name, res.SamplePackets)
		}
	}
}

// TestDeadlockModeSaturationOrdering: dateline's halved VC flexibility
// shows up as clearly higher latency near saturation than bubble's.
func TestDeadlockModeSaturationOrdering(t *testing.T) {
	run := func(mode DeadlockMode) float64 {
		cfg := testConfig(t, 0.12)
		cfg.Deadlock = mode
		cfg.SamplePackets = 800
		res, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return res.AvgLatency
	}
	bubble := run(DeadlockBubble)
	dateline := run(DeadlockDateline)
	if dateline <= bubble {
		t.Errorf("dateline latency %.1f should exceed bubble %.1f at 0.12", dateline, bubble)
	}
}

// TestTraceAtCore: trace replay terminates when the trace is exhausted
// even if fewer packets than requested were injected.
func TestTraceAtCore(t *testing.T) {
	cfg := testConfig(t, 0)
	cfg.Traffic.Rates = traffic.UniformRates(16, 0)
	cfg.SamplePackets = 1000 // far more than the trace provides
	cfg.Trace = traffic.NewTrace([]traffic.TraceRecord{
		{Cycle: 350, Src: 0, Dst: 5},
		{Cycle: 351, Src: 1, Dst: 6},
		{Cycle: 352, Src: 2, Dst: 7},
	})
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 3 {
		t.Errorf("measured %d packets, want the trace's 3", res.SamplePackets)
	}
}

// TestFlitConservation: flits are never lost or duplicated — everything
// generated is either delivered, queued at a source, buffered in a router,
// or in flight on a wire (at most one flit per wire).
func TestFlitConservation(t *testing.T) {
	cfg := testConfig(t, 0.08)
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := n.Step(false); err != nil {
			t.Fatal(err)
		}
	}
	var generated int64
	for _, g := range n.gen.Generated {
		generated += g
	}
	var ejected int64
	for _, s := range n.sinks {
		ejected += s.Ejected
	}
	srcQ, buffered := n.Snapshot()
	var inNetwork int64
	for i := range srcQ {
		inNetwork += int64(srcQ[i]) + int64(buffered[i])
	}
	total := ejected + inNetwork
	flits := generated * int64(cfg.Traffic.PacketLength)
	// Wires can hold at most one flit each: 64 link wires + 16 inject +
	// 16 eject on a 4×4 torus.
	const wireSlack = 96
	if total > flits || flits-total > wireSlack {
		t.Errorf("conservation violated: generated %d flits, accounted %d (ejected %d, in-network %d)",
			flits, total, ejected, inNetwork)
	}
}

// TestRingTopology: a Wx1 torus degenerates to a ring; the y dimension has
// self-links that routing never uses.
func TestRingTopology(t *testing.T) {
	topo, err := topology.New([]int{8, 1}, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 0.04)
	cfg.Topology = topo
	cfg.Traffic.Pattern = traffic.Uniform{Nodes: 8}
	cfg.Traffic.Rates = traffic.UniformRates(8, 0.04)
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("8x1 ring run: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
}

// TestKAryNCube: a 4-ary 3-cube (64 nodes, 7-port routers) runs end to end
// with bubble flow control on every ring.
func TestKAryNCube(t *testing.T) {
	topo, err := topology.New([]int{4, 4, 4}, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 0.02)
	cfg.Topology = topo
	cfg.Router.Ports = topo.Ports()
	cfg.Traffic.Pattern = traffic.Uniform{Nodes: 64}
	cfg.Traffic.Rates = traffic.UniformRates(64, 0.02)
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("4-ary 3-cube run: %v", err)
	}
	if res.SamplePackets != 400 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
	if len(res.NodePowerW) != 64 {
		t.Errorf("node power vector has %d entries", len(res.NodePowerW))
	}
	// Latency in a sane range for ≤6-hop paths with a 3-stage pipeline.
	if res.AvgLatency < 10 || res.AvgLatency > 80 {
		t.Errorf("3-cube latency = %.1f, implausible", res.AvgLatency)
	}

	// A wormhole 3-cube exercises the local bubble on 7-port routers.
	whCfg := testConfig(t, 0.02)
	whCfg.Topology = topo
	whCfg.Router.Kind = router.Wormhole
	whCfg.Router.VCs = 1
	whCfg.Router.BufferDepth = 16
	whCfg.Router.Ports = topo.Ports()
	whCfg.Traffic.Pattern = traffic.Uniform{Nodes: 64}
	whCfg.Traffic.Rates = traffic.UniformRates(64, 0.02)
	if _, err := RunConfig(whCfg); err != nil {
		t.Fatalf("wormhole 3-cube run: %v", err)
	}
}

// TestKAryNCubeSaturated drives a 3-cube VC network past its knee to shake
// out ring-bubble deadlock issues in three dimensions.
func TestKAryNCubeSaturated(t *testing.T) {
	topo, err := topology.New([]int{3, 3, 3}, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 0.15)
	cfg.Topology = topo
	cfg.Router.Ports = topo.Ports()
	cfg.Traffic.Pattern = traffic.Uniform{Nodes: 27}
	cfg.Traffic.Rates = traffic.UniformRates(27, 0.15)
	cfg.SamplePackets = 1500
	cfg.MaxCycles = 400000
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("saturated 3-cube: %v", err)
	}
	if res.SamplePackets != 1500 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
}
