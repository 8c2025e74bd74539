package orion

import (
	"math"
	"strings"
	"testing"
)

func TestPresetsMatchPaperParameters(t *testing.T) {
	cases := []struct {
		name        string
		r           RouterConfig
		kind        RouterKind
		vcs, depth  int
		flits       int
		totalBuffer int // flits per port
	}{
		{"WH64", WH64(), Wormhole, 0, 64, 256, 64},
		{"VC16", VC16(), VirtualChannel, 2, 8, 256, 16},
		{"VC64", VC64(), VirtualChannel, 8, 8, 256, 64},
		{"VC128", VC128(), VirtualChannel, 8, 16, 256, 128},
		{"XB", XB(), VirtualChannel, 16, 268, 32, 4288},
		{"CB", CB(), CentralBuffered, 0, 64, 32, 64},
	}
	for _, c := range cases {
		if c.r.Kind != c.kind {
			t.Errorf("%s kind = %v", c.name, c.r.Kind)
		}
		if c.r.VCs != c.vcs || c.r.BufferDepth != c.depth || c.r.FlitBits != c.flits {
			t.Errorf("%s parameters = %+v", c.name, c.r)
		}
		vcs := c.r.VCs
		if vcs == 0 {
			vcs = 1
		}
		if got := vcs * c.r.BufferDepth; got != c.totalBuffer {
			t.Errorf("%s buffering per port = %d flits, want %d", c.name, got, c.totalBuffer)
		}
	}
	cb := CB().CentralBuffer
	if cb.Banks != 4 || cb.Rows != 2560 || cb.ReadPorts != 2 || cb.WritePorts != 2 {
		t.Errorf("CB central buffer = %+v, want paper's 4×2560 2R2W", cb)
	}
	if BroadcastNode12 != 9 {
		t.Errorf("broadcast node (1,2) should be index 9, got %d", BroadcastNode12)
	}
}

func TestPresetExperimentConfigs(t *testing.T) {
	on := OnChip4x4(VC16(), 0.1)
	if on.Width != 4 || on.Height != 4 || on.Mesh {
		t.Error("on-chip preset should be a 4×4 torus")
	}
	if on.Link.ChipToChip || on.Link.LengthMm != 3 {
		t.Error("on-chip preset should use 3 mm on-chip links")
	}
	if on.Tech.FreqGHz != 2 {
		t.Error("on-chip preset should clock at 2 GHz")
	}
	c2c := ChipToChip4x4(CB(), 0.1)
	if !c2c.Link.ChipToChip || c2c.Link.ConstantWatts != 3 {
		t.Error("chip-to-chip preset should use 3 W links")
	}
	if c2c.Tech.FreqGHz != 1 {
		t.Error("chip-to-chip preset should clock at 1 GHz")
	}
}

func TestSpeculativePipeline(t *testing.T) {
	base := fastConfig(0.05)
	zlBase, err := ZeroLoadLatency(base)
	if err != nil {
		t.Fatal(err)
	}
	spec := fastConfig(0.05)
	spec.Router.Speculative = true
	zlSpec, err := ZeroLoadLatency(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Speculation removes one pipeline stage per hop: with ≈3 routers on
	// the average path, zero-load latency drops by ≈3 cycles.
	if zlSpec >= zlBase-1.5 {
		t.Errorf("speculative zero-load %.1f should be well below %.1f", zlSpec, zlBase)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets == 0 {
		t.Error("speculative run delivered nothing")
	}
}

func TestLeakageExtension(t *testing.T) {
	base := fastConfig(0.05)
	noLeak, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if noLeak.StaticPowerW != 0 {
		t.Errorf("leakage off should report 0 static power, got %g", noLeak.StaticPowerW)
	}

	leak := fastConfig(0.05)
	leak.Sim.IncludeLeakage = true
	withLeak, err := Run(leak)
	if err != nil {
		t.Fatal(err)
	}
	if withLeak.StaticPowerW <= 0 {
		t.Fatal("leakage on should report positive static power")
	}
	// Leakage at 0.1 µm is a small fraction of dynamic power.
	if withLeak.StaticPowerW >= 0.2*withLeak.TotalPowerW {
		t.Errorf("static %g W implausibly large vs total %g W",
			withLeak.StaticPowerW, withLeak.TotalPowerW)
	}
	// Totals include it.
	if withLeak.TotalPowerW <= noLeak.TotalPowerW {
		t.Error("total power should grow when leakage is included")
	}
	diff := withLeak.TotalPowerW - noLeak.TotalPowerW
	if math.Abs(diff-withLeak.StaticPowerW)/withLeak.StaticPowerW > 0.05 {
		t.Errorf("total power delta %g should be ≈ static power %g", diff, withLeak.StaticPowerW)
	}
	// Performance identical: leakage is power-only.
	if withLeak.AvgLatency != noLeak.AvgLatency {
		t.Error("leakage modelling must not change performance")
	}
}

func TestDeadlockModes(t *testing.T) {
	for _, mode := range []DeadlockMode{DeadlockBubble, DeadlockDateline, DeadlockNone} {
		cfg := fastConfig(0.05) // well below saturation: all modes complete
		cfg.Sim.Deadlock = mode
		res, err := Run(cfg)
		if err != nil {
			t.Errorf("mode %d: %v", mode, err)
			continue
		}
		if res.SamplePackets != 300 {
			t.Errorf("mode %d measured %d packets", mode, res.SamplePackets)
		}
	}
	bad := fastConfig(0.05)
	bad.Sim.Deadlock = DeadlockMode(9)
	if _, err := Run(bad); err == nil {
		t.Error("unknown deadlock mode should be rejected")
	}
	// Dateline requires an even VC count on a torus.
	odd := fastConfig(0.05)
	odd.Sim.Deadlock = DeadlockDateline
	odd.Router.VCs = 3
	if _, err := Run(odd); err == nil {
		t.Error("dateline with odd VCs should be rejected")
	}
}

func TestRunTrace(t *testing.T) {
	cfg := fastConfig(0)
	trace := `
# cycle src dst
5 0 3
6 1 7
7 2 9
200 5 0
201 5 1
`
	res, err := RunTrace(cfg, strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up is 200 cycles; the three early records replay during
	// warm-up (unsampled), the two later ones are the sample.
	if res.SamplePackets != 2 {
		t.Errorf("sample packets = %d, want 2", res.SamplePackets)
	}
	if res.AvgLatency <= 0 {
		t.Error("trace run produced no latency")
	}
}

func TestRunTraceErrors(t *testing.T) {
	cfg := fastConfig(0)
	if _, err := RunTrace(cfg, strings.NewReader("")); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := RunTrace(cfg, strings.NewReader("a b c")); err == nil {
		t.Error("malformed trace should fail")
	}
	if _, err := RunTrace(cfg, strings.NewReader("1 0 99")); err == nil {
		t.Error("out-of-range node should fail")
	}
	bad := cfg
	bad.Width = 0
	if _, err := RunTrace(bad, strings.NewReader("1 0 1")); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestLinkDVS(t *testing.T) {
	// At low load, DVS links drop voltage and save link power at a small
	// latency cost.
	base := fastConfig(0.02)
	base.Sim.SamplePackets = 1500
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	dvs := base
	dvs.Link.DVS = &DVSPolicy{}
	scaled, err := Run(dvs)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Breakdown.LinkW >= plain.Breakdown.LinkW {
		t.Errorf("DVS link power %.4g W should undercut plain %.4g W at low load",
			scaled.Breakdown.LinkW, plain.Breakdown.LinkW)
	}
	if scaled.AvgLatency <= plain.AvgLatency {
		t.Errorf("DVS latency %.1f should exceed plain %.1f (throttled links)",
			scaled.AvgLatency, plain.AvgLatency)
	}
	// The network still works and delivers everything.
	if scaled.SamplePackets != plain.SamplePackets {
		t.Error("DVS run lost packets")
	}
}

func TestLinkDVSHighLoadConverges(t *testing.T) {
	// Under heavy load the controllers step back to full speed; power
	// approaches the plain configuration.
	base := fastConfig(0.10)
	base.Sim.SamplePackets = 1500
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	dvs := base
	dvs.Link.DVS = &DVSPolicy{}
	scaled, err := Run(dvs)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Breakdown.LinkW < 0.6*plain.Breakdown.LinkW {
		t.Errorf("at high load DVS link power %.4g W should approach plain %.4g W",
			scaled.Breakdown.LinkW, plain.Breakdown.LinkW)
	}
}

func TestLinkDVSValidation(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Link = LinkConfig{ChipToChip: true, ConstantWatts: 3, DVS: &DVSPolicy{}}
	if _, err := Run(cfg); err == nil {
		t.Error("DVS on chip-to-chip links should be rejected")
	}
	bad := fastConfig(0.05)
	bad.Link.DVS = &DVSPolicy{Levels: []DVSLevel{{VddScale: 0.5, SpeedScale: 0.5}}}
	if _, err := Run(bad); err == nil {
		t.Error("DVS without a full-speed level 0 should be rejected")
	}
}

func TestFigRatesAndConfigs(t *testing.T) {
	if got := len(Fig5Configs()); got != 4 {
		t.Errorf("Fig5Configs returned %d entries", got)
	}
}

// TestEventCounts checks the event accounting against flow conservation:
// every flit delivered is written and read once per router visited, and
// traverses one crossbar per router and one link per inter-router hop.
func TestEventCounts(t *testing.T) {
	cfg := fastConfig(0.05)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Events
	if ev.BufferWrites == 0 || ev.BufferReads == 0 || ev.CrossbarTraversals == 0 ||
		ev.LinkTraversals == 0 || ev.Arbitrations == 0 || ev.VCAllocations == 0 {
		t.Fatalf("missing event counts: %+v", ev)
	}
	if ev.CentralBufferWrites != 0 || ev.CentralBufferReads != 0 {
		t.Error("XB network should have no central buffer events")
	}
	// Reads and crossbar traversals track each other exactly (every
	// switch traversal pops one flit), and writes ≈ reads (a few flits
	// remain buffered at the end of measurement).
	if ev.BufferReads != ev.CrossbarTraversals {
		t.Errorf("reads %d != crossbar traversals %d", ev.BufferReads, ev.CrossbarTraversals)
	}
	// Writes ≈ reads; the boundary flits (buffered across the warm-up
	// edge or still in flight at the end) skew it by at most a few
	// percent in either direction.
	diff := float64(ev.BufferWrites - ev.BufferReads)
	if math.Abs(diff) > 0.05*float64(ev.BufferWrites) {
		t.Errorf("writes %d vs reads %d unbalanced", ev.BufferWrites, ev.BufferReads)
	}
	// Links are traversed less than the crossbar (ejection hops skip the
	// link but not the crossbar).
	if ev.LinkTraversals >= ev.CrossbarTraversals {
		t.Errorf("link traversals %d should be below crossbar traversals %d",
			ev.LinkTraversals, ev.CrossbarTraversals)
	}

	// Central-buffered network: CB events appear, crossbar events don't.
	cb := fastConfig(0.04)
	cb.Router = RouterConfig{
		Kind: CentralBuffered, BufferDepth: 16, FlitBits: 64,
		CentralBuffer: CentralBufferConfig{Banks: 4, Rows: 64, ReadPorts: 2, WritePorts: 2},
	}
	cbRes, err := Run(cb)
	if err != nil {
		t.Fatal(err)
	}
	if cbRes.Events.CentralBufferWrites == 0 || cbRes.Events.CentralBufferReads == 0 {
		t.Error("CB network should record central buffer events")
	}
	if cbRes.Events.CrossbarTraversals != 0 {
		t.Error("CB network should record no crossbar traversals")
	}
}

// TestPowerProfile: the power-vs-time trace covers the measurement period
// and averages to roughly the reported total power.
func TestPowerProfile(t *testing.T) {
	cfg := fastConfig(0.06)
	cfg.Sim.ProfileWindowCycles = 100
	cfg.Sim.SamplePackets = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerProfileW) == 0 {
		t.Fatal("profile requested but empty")
	}
	wantSamples := int(res.MeasuredCycles / 100)
	if len(res.PowerProfileW) < wantSamples-1 || len(res.PowerProfileW) > wantSamples+1 {
		t.Errorf("profile has %d samples over %d cycles, want ≈%d",
			len(res.PowerProfileW), res.MeasuredCycles, wantSamples)
	}
	var sum float64
	for _, w := range res.PowerProfileW {
		if w < 0 {
			t.Fatal("negative power sample")
		}
		sum += w
	}
	avg := sum / float64(len(res.PowerProfileW))
	if avg < 0.5*res.TotalPowerW || avg > 1.5*res.TotalPowerW {
		t.Errorf("profile average %.3g W far from total %.3g W", avg, res.TotalPowerW)
	}

	// Without the option the profile is absent.
	plain, err := Run(fastConfig(0.06))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.PowerProfileW) != 0 {
		t.Error("profile should be empty unless requested")
	}
}

// TestPowerProfileShowsDVSAdaptation: with DVS links at low load, early
// windows (full voltage) cost more than late windows (stepped down).
func TestPowerProfileShowsDVSAdaptation(t *testing.T) {
	cfg := fastConfig(0.02)
	cfg.Sim.ProfileWindowCycles = 200
	cfg.Sim.SamplePackets = 2500
	cfg.Sim.WarmupCycles = 1 // watch the controllers adapt from cold
	cfg.Link.DVS = &DVSPolicy{WindowCycles: 256}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PowerProfileW) < 6 {
		t.Skipf("profile too short (%d samples)", len(res.PowerProfileW))
	}
	early := res.PowerProfileW[0]
	n := len(res.PowerProfileW)
	var late float64
	for _, w := range res.PowerProfileW[n-3:] {
		late += w
	}
	late /= 3
	if late >= early {
		t.Errorf("late power %.4g should drop below early %.4g as DVS steps down", late, early)
	}
}

func TestLatencyPercentilesInResult(t *testing.T) {
	res, err := Run(fastConfig(0.08))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MinLatency <= res.LatencyP50 && res.LatencyP50 <= res.LatencyP95 &&
		res.LatencyP95 <= res.LatencyP99 && res.LatencyP99 <= res.MaxLatency) {
		t.Errorf("percentiles out of order: min %g p50 %g p95 %g p99 %g max %g",
			res.MinLatency, res.LatencyP50, res.LatencyP95, res.LatencyP99, res.MaxLatency)
	}
	if res.LatencyStdDev <= 0 {
		t.Error("latency spread missing")
	}
	// Per-node breakdowns sum to the network breakdown.
	if len(res.NodeBreakdown) != 16 {
		t.Fatalf("node breakdown has %d entries", len(res.NodeBreakdown))
	}
	var sum PowerBreakdown
	for _, b := range res.NodeBreakdown {
		sum.BufferW += b.BufferW
		sum.CrossbarW += b.CrossbarW
		sum.ArbiterW += b.ArbiterW
		sum.LinkW += b.LinkW
		sum.CentralBufferW += b.CentralBufferW
	}
	if math.Abs(sum.Total()-res.TotalPowerW)/res.TotalPowerW > 1e-9 {
		t.Errorf("node breakdowns sum to %g, total is %g", sum.Total(), res.TotalPowerW)
	}
}

// TestThreeDimensionalTorus: the public API supports k-ary 3-cubes.
func Test3DTorus(t *testing.T) {
	cfg := fastConfig(0.02)
	cfg.Depth = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodePowerW) != 48 {
		t.Errorf("4×4×3 network has %d node powers, want 48", len(res.NodePowerW))
	}
	if res.SamplePackets != 300 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
	// 3-D zero-load latency exceeds the 2-D network's (longer paths,
	// same pipeline).
	zl2, err := ZeroLoadLatency(fastConfig(0.02))
	if err != nil {
		t.Fatal(err)
	}
	zl3, err := ZeroLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zl3 <= zl2 {
		t.Errorf("3-D zero-load %.1f should exceed 2-D %.1f", zl3, zl2)
	}
}

func Test3DValidation(t *testing.T) {
	cfg := fastConfig(0.02)
	cfg.Depth = 2
	cfg.Mesh = true
	if _, err := Run(cfg); err == nil {
		t.Error("3-D mesh should be rejected")
	}
	for _, k := range []PatternKind{PatternTranspose, PatternTornado, PatternNeighbor} {
		c := fastConfig(0.02)
		c.Depth = 2
		c.Traffic.Pattern = Pattern{Kind: k}
		if _, err := Run(c); err == nil {
			t.Errorf("pattern %v should be 2-D only", k)
		}
	}
	// Broadcast works in 3-D.
	b := fastConfig(0)
	b.Depth = 2
	b.Traffic.Pattern = BroadcastFrom(5)
	b.Traffic.Rate = 0.1
	if _, err := Run(b); err != nil {
		t.Errorf("3-D broadcast failed: %v", err)
	}
}

func TestAllEnumStringsNamed(t *testing.T) {
	for k := PatternKind(0); k <= PatternNeighbor; k++ {
		if strings.HasPrefix(k.String(), "PatternKind(") {
			t.Errorf("pattern %d unnamed", int(k))
		}
	}
	for k := ArbiterKind(0); k <= QueuingArbiter; k++ {
		if strings.HasPrefix(k.String(), "ArbiterKind(") {
			t.Errorf("arbiter %d unnamed", int(k))
		}
	}
	for m := DeadlockMode(0); m <= DeadlockNone; m++ {
		if strings.HasPrefix(m.String(), "DeadlockMode(") {
			t.Errorf("deadlock mode %d unnamed", int(m))
		}
	}
	for k := RouterKind(0); k <= CentralBuffered; k++ {
		if strings.HasPrefix(k.String(), "RouterKind(") {
			t.Errorf("router kind %d unnamed", int(k))
		}
	}
}

// TestConfigurationMatrix sweeps a grid of router kinds, VC counts, widths
// and options end to end — the "pick, plug and play" claim of the paper's
// conclusion.
func TestConfigurationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("configuration matrix")
	}
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	add := func(name string, mutate func(*Config)) {
		cfg := Config{
			Width: 4, Height: 4,
			Router:  RouterConfig{Kind: VirtualChannel, VCs: 2, BufferDepth: 8, FlitBits: 64},
			Link:    LinkConfig{LengthMm: 3},
			Traffic: TrafficConfig{Pattern: Uniform(), Rate: 0.04, PacketLength: 5, Seed: 9},
			Sim:     SimConfig{WarmupCycles: 200, SamplePackets: 250},
		}
		mutate(&cfg)
		variants = append(variants, variant{name, cfg})
	}

	add("vc4x32", func(c *Config) { c.Router.VCs = 4; c.Router.FlitBits = 32 })
	add("vc1", func(c *Config) { c.Router.VCs = 1 })
	add("vc odd 3", func(c *Config) { c.Router.VCs = 3 })
	add("wormhole deep", func(c *Config) { c.Router.Kind = Wormhole; c.Router.BufferDepth = 32 })
	add("wh 128-bit", func(c *Config) {
		c.Router.Kind = Wormhole
		c.Router.BufferDepth = 16
		c.Router.FlitBits = 128
	})
	add("cb small", func(c *Config) {
		c.Router.Kind = CentralBuffered
		c.Router.BufferDepth = 16
		c.Router.CentralBuffer = CentralBufferConfig{Banks: 2, Rows: 32, ReadPorts: 1, WritePorts: 1}
	})
	add("cb wide", func(c *Config) {
		c.Router.Kind = CentralBuffered
		c.Router.BufferDepth = 12
		c.Router.CentralBuffer = CentralBufferConfig{Banks: 8, Rows: 64, ReadPorts: 3, WritePorts: 3}
	})
	add("mesh 5x3", func(c *Config) { c.Mesh = true; c.Width = 5; c.Height = 3 })
	add("3d 3x3x3", func(c *Config) { c.Width = 3; c.Height = 3; c.Depth = 3 })
	add("rect 8x2", func(c *Config) { c.Width = 8; c.Height = 2 })
	add("single packet flit", func(c *Config) { c.Traffic.PacketLength = 1 })
	add("long packets", func(c *Config) {
		c.Traffic.PacketLength = 8
		c.Router.BufferDepth = 8 // == packet: VCT boundary case
	})
	add("chip2chip vc", func(c *Config) {
		c.Link = LinkConfig{ChipToChip: true, ConstantWatts: 3}
		c.Tech.FreqGHz = 1
	})
	add("bitcomp", func(c *Config) { c.Traffic.Pattern = Pattern{Kind: PatternBitComplement} })
	add("hotspot heavy", func(c *Config) {
		c.Traffic.Pattern = Pattern{Kind: PatternHotspot, Source: 0, Fraction: 0.5}
		c.Traffic.Rate = 0.02
	})
	add("speculative+balanced+leakage", func(c *Config) {
		c.Router.Speculative = true
		c.BalancedTieRouting = true
		c.Sim.IncludeLeakage = true
	})
	add("scaled 70nm", func(c *Config) { c.Tech = TechConfig{FeatureUm: 0.07, FreqGHz: 3} })
	add("dvs+profile", func(c *Config) {
		c.Link.DVS = &DVSPolicy{}
		c.Sim.ProfileWindowCycles = 100
	})

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(v.cfg)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			if res.SamplePackets != int64(v.cfg.Sim.SamplePackets) {
				t.Errorf("%s: measured %d packets, want %d", v.name, res.SamplePackets, v.cfg.Sim.SamplePackets)
			}
			if res.AvgLatency <= 0 || res.TotalPowerW <= 0 {
				t.Errorf("%s: missing metrics", v.name)
			}
		})
	}
}
