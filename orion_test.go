package orion

import (
	"math"
	"strings"
	"testing"

	"orion/internal/power"
	"orion/internal/sim"
)

// fastConfig is a quick 4×4 on-chip VC configuration for unit tests.
func fastConfig(rate float64) Config {
	return Config{
		Width: 4, Height: 4,
		Router:  RouterConfig{Kind: VirtualChannel, VCs: 2, BufferDepth: 8, FlitBits: 64},
		Link:    LinkConfig{LengthMm: 3},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: rate, PacketLength: 5, Seed: 5},
		Sim:     SimConfig{WarmupCycles: 200, SamplePackets: 300},
	}
}

func TestRouterKindString(t *testing.T) {
	if VirtualChannel.String() != "virtual-channel" || Wormhole.String() != "wormhole" ||
		CentralBuffered.String() != "central-buffered" {
		t.Error("kind names wrong")
	}
	if !strings.HasPrefix(RouterKind(9).String(), "RouterKind(") {
		t.Error("unknown kind should format numerically")
	}
}

func TestResolveValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"negative height", func(c *Config) { c.Height = -1 }},
		{"bad router kind", func(c *Config) { c.Router.Kind = RouterKind(9) }},
		{"bad rate", func(c *Config) { c.Traffic.Rate = 1.5 }},
		{"negative rate", func(c *Config) { c.Traffic.Rate = -0.1 }},
		{"bad pattern", func(c *Config) { c.Traffic.Pattern.Kind = PatternKind(99) }},
		{"broadcast source range", func(c *Config) { c.Traffic.Pattern = BroadcastFrom(99) }},
		{"hotspot range", func(c *Config) { c.Traffic.Pattern = Pattern{Kind: PatternHotspot, Source: -1} }},
		{"bad arbiter", func(c *Config) { c.Sim.Arbiter = ArbiterKind(9) }},
		{"transpose non-square", func(c *Config) {
			c.Height = 2
			c.Traffic.Pattern = Pattern{Kind: PatternTranspose}
		}},
	}
	for _, tc := range cases {
		cfg := fastConfig(0.05)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 300 {
		t.Errorf("sample packets = %d, want 300", res.SamplePackets)
	}
	if res.AvgLatency <= 0 || res.TotalPowerW <= 0 || res.EnergyJ <= 0 {
		t.Error("missing metrics")
	}
	if res.OfferedRate != 0.05 {
		t.Errorf("offered rate echo = %g", res.OfferedRate)
	}
	total := res.Breakdown.Total()
	if math.Abs(total-res.TotalPowerW)/res.TotalPowerW > 1e-9 {
		t.Errorf("breakdown total %g != total %g", total, res.TotalPowerW)
	}
	if res.Breakdown.CentralBufferW != 0 {
		t.Error("XB router should have no central buffer power")
	}
}

func TestTechOverrides(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Tech = TechConfig{FeatureUm: 0.07, Vdd: 1.0, FreqGHz: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	// Smaller process, lower voltage and clock: less power.
	if res.TotalPowerW >= base.TotalPowerW {
		t.Errorf("scaled-down tech power %g should undercut default %g",
			res.TotalPowerW, base.TotalPowerW)
	}
}

func TestSweepOrdering(t *testing.T) {
	rates := []float64{0.02, 0.06, 0.1}
	results, err := Sweep(fastConfig(0), rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.OfferedRate != rates[i] {
			t.Errorf("result %d has rate %g, want %g", i, r.OfferedRate, rates[i])
		}
	}
	// Latency grows with load; power grows with load.
	if !(results[0].AvgLatency < results[2].AvgLatency) {
		t.Errorf("latency not increasing: %v < %v", results[0].AvgLatency, results[2].AvgLatency)
	}
	if !(results[0].TotalPowerW < results[2].TotalPowerW) {
		t.Errorf("power not increasing: %v < %v", results[0].TotalPowerW, results[2].TotalPowerW)
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	rates := []float64{0.03, 0.08}
	a, err := Sweep(fastConfig(0), rates)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(fastConfig(0), rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if a[i].AvgLatency != b[i].AvgLatency || a[i].EnergyJ != b[i].EnergyJ {
			t.Fatalf("sweep not deterministic at rate %g", rates[i])
		}
	}
}

func TestZeroLoadAndSaturation(t *testing.T) {
	cfg := fastConfig(0)
	zl, err := ZeroLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zl < 8 || zl > 40 {
		t.Errorf("zero-load latency = %.1f, implausible", zl)
	}
	cfg.Sim.MaxCycles = 120_000
	rate, ok, results, err := SaturationThroughput(cfg, []float64{0.05, 0.15, 0.25, 0.35})
	if err != nil && !ok {
		t.Fatalf("SaturationThroughput: %v", err)
	}
	if !ok {
		t.Fatal("a 4×4 torus with 2 VCs must saturate below 0.35 pkts/cycle/node")
	}
	if rate < 0.05 || rate > 0.35 {
		t.Errorf("saturation rate = %g, outside swept range", rate)
	}
	if len(results) != 4 {
		t.Errorf("results length = %d", len(results))
	}
}

func TestComponentEnergies(t *testing.T) {
	rep, err := ComponentEnergies(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BufferReadJ <= 0 || rep.BufferWriteAvgJ <= 0 || rep.CrossbarTraversalAvgJ <= 0 ||
		rep.LinkTraversalAvgJ <= 0 || rep.ArbiterGrantJ <= 0 {
		t.Error("missing component energies")
	}
	if rep.BufferWriteMaxJ <= rep.BufferWriteAvgJ {
		t.Error("max write should exceed average write")
	}
	// E_flit composition (Section 3.3).
	want := rep.BufferWriteAvgJ + rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ +
		rep.BufferReadJ + rep.CrossbarTraversalAvgJ + rep.LinkTraversalAvgJ
	if math.Abs(rep.FlitEnergyJ-want)/want > 1e-12 {
		t.Errorf("E_flit = %g, want %g", rep.FlitEnergyJ, want)
	}
	if rep.RouterAreaUm2 <= 0 {
		t.Error("missing area estimate")
	}
	if rep.CentralBufReadJ != 0 {
		t.Error("XB report should have no central buffer energies")
	}
}

func TestComponentEnergiesCentralBuffer(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Router = RouterConfig{
		Kind: CentralBuffered, BufferDepth: 64, FlitBits: 32,
		CentralBuffer: CentralBufferConfig{Banks: 4, Rows: 256, ReadPorts: 2, WritePorts: 2},
	}
	cfg.Link = LinkConfig{ChipToChip: true, ConstantWatts: 3}
	rep, err := ComponentEnergies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CentralBufReadJ <= 0 || rep.CentralBufWriteJ <= 0 {
		t.Error("missing central buffer energies")
	}
	if rep.CrossbarTraversalAvgJ != 0 {
		t.Error("CB report should have no main crossbar energy")
	}
	if rep.LinkConstantW != 3 {
		t.Errorf("link constant power = %g, want 3", rep.LinkConstantW)
	}
	if rep.LinkTraversalAvgJ != 0 {
		t.Error("chip-to-chip link should have no per-traversal energy")
	}
}

// TestCalculatorMatchesMeter: the standalone calculator reports the
// energies of the very models a simulation of the same configuration
// charges its events to, and a network builds one arbiter model per
// requester count, not one per arbiter.
func TestCalculatorMatchesMeter(t *testing.T) {
	for _, tc := range []struct {
		name     string
		router   RouterConfig
		arbiters int // distinct arbiter models in the network
	}{{"WH64", WH64(), 1}, {"VC16", VC16(), 2}, {"CB", CB(), 1}} {
		for _, chip := range []struct {
			name string
			cfg  func(RouterConfig, float64) Config
		}{{"on-chip", OnChip4x4}, {"chip-to-chip", ChipToChip4x4}} {
			t.Run(tc.name+"/"+chip.name, func(t *testing.T) {
				cfg := chip.cfg(tc.router, 0.05)
				rep, err := ComponentEnergies(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				meter := s.net.Meter()
				model := func(typ sim.EventType, stage int) any {
					return meter.ModelFor(&sim.Event{Type: typ, Stage: stage})
				}
				check := func(field string, got, want float64) {
					t.Helper()
					if got != want {
						t.Errorf("%s = %g, meter's model gives %g", field, got, want)
					}
				}

				buf := model(sim.EvBufferWrite, 0).(*power.BufferModel)
				check("BufferReadJ", rep.BufferReadJ, buf.ReadEnergy())
				check("BufferWriteAvgJ", rep.BufferWriteAvgJ, buf.AvgWriteEnergy())
				check("BufferWriteMaxJ", rep.BufferWriteMaxJ, buf.MaxWriteEnergy())
				arb := model(sim.EvArbitration, sim.StageOutput).(*power.ArbiterModel)
				check("ArbiterGrantJ", rep.ArbiterGrantJ, arb.GrantEnergy())
				check("ArbiterRequestAvgJ", rep.ArbiterRequestAvgJ, arb.AvgRequestEnergy())
				link := model(sim.EvLinkTraversal, 0).(*power.LinkModel)
				check("LinkTraversalAvgJ", rep.LinkTraversalAvgJ, link.AvgTraversalEnergy())
				check("LinkConstantW", rep.LinkConstantW, link.ConstantPower())
				if tc.router.Kind == CentralBuffered {
					cb := model(sim.EvCentralBufWrite, 0).(*power.CentralBufferModel)
					check("CentralBufWriteJ", rep.CentralBufWriteJ, cb.AvgWriteEnergy())
					check("CentralBufReadJ", rep.CentralBufReadJ, cb.AvgReadEnergy())
				} else {
					xb := model(sim.EvCrossbarTraversal, 0).(*power.CrossbarModel)
					check("CrossbarTraversalAvgJ", rep.CrossbarTraversalAvgJ, xb.AvgTraversalEnergy())
					check("CrossbarCtrlJ", rep.CrossbarCtrlJ, xb.CtrlEnergy())
				}

				distinct := map[any]bool{}
				for node := 0; node < cfg.Width*cfg.Height; node++ {
					for _, typ := range []sim.EventType{sim.EvArbitration, sim.EvVCAllocation} {
						for stage := sim.StageInput; stage <= sim.StageOutput; stage++ {
							for port := 0; port < 5; port++ {
								if m := meter.ModelFor(&sim.Event{Type: typ, Node: node, Stage: stage, Port: port}); m != nil {
									distinct[m] = true
								}
							}
						}
					}
				}
				if len(distinct) != tc.arbiters {
					t.Errorf("arbiter states point at %d distinct models, want %d", len(distinct), tc.arbiters)
				}
			})
		}
	}
}

// TestWalkthroughFlitEnergy reproduces the Section 3.3 walkthrough router:
// 5 ports, 4 flit buffers per port, 32-bit flits, 5×5 crossbar, 4:1
// arbiters; E_flit must decompose into the five walkthrough terms.
func TestWalkthroughFlitEnergy(t *testing.T) {
	cfg := Config{
		Width: 4, Height: 4,
		Router:  RouterConfig{Kind: Wormhole, BufferDepth: 4, FlitBits: 32},
		Link:    LinkConfig{LengthMm: 3},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: 0.05, PacketLength: 1, Seed: 1},
	}
	rep, err := ComponentEnergies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	terms := []struct {
		name string
		v    float64
	}{
		{"E_wrt", rep.BufferWriteAvgJ},
		{"E_arb", rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ},
		{"E_read", rep.BufferReadJ},
		{"E_xb", rep.CrossbarTraversalAvgJ},
		{"E_link", rep.LinkTraversalAvgJ},
	}
	var sum float64
	for _, term := range terms {
		if term.v <= 0 {
			t.Errorf("%s = %g, want positive", term.name, term.v)
		}
		sum += term.v
	}
	if math.Abs(sum-rep.FlitEnergyJ)/rep.FlitEnergyJ > 1e-12 {
		t.Errorf("walkthrough sum %g != E_flit %g", sum, rep.FlitEnergyJ)
	}
	// Arbiter energy is minor (paper: < 1% of node power).
	if terms[1].v > 0.05*rep.FlitEnergyJ {
		t.Errorf("E_arb = %g is not minor relative to E_flit = %g", terms[1].v, rep.FlitEnergyJ)
	}
}

func TestHeatmapString(t *testing.T) {
	res := &Result{NodePowerW: []float64{1, 2, 3, 4}}
	s, err := HeatmapString(res, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s != "3\t4\n1\t2\n" {
		t.Errorf("heatmap = %q", s)
	}
	if _, err := HeatmapString(res, 3, 2); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := HeatmapString(nil, 1, 1); err == nil {
		t.Error("nil result should fail")
	}
}

func TestMeshConfig(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Mesh = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 300 {
		t.Errorf("mesh run measured %d packets", res.SamplePackets)
	}
}

func TestAblationKnobs(t *testing.T) {
	base, err := Run(fastConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	mux := fastConfig(0.05)
	mux.Sim.MuxTreeCrossbar = true
	muxRes, err := Run(mux)
	if err != nil {
		t.Fatal(err)
	}
	if muxRes.Breakdown.CrossbarW >= base.Breakdown.CrossbarW {
		t.Error("mux-tree crossbar should reduce crossbar power at 5 ports")
	}
	if muxRes.AvgLatency != base.AvgLatency {
		t.Error("crossbar power model must not affect performance")
	}

	for _, arb := range []ArbiterKind{RoundRobinArbiter, QueuingArbiter} {
		cfg := fastConfig(0.05)
		cfg.Sim.Arbiter = arb
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("arbiter %d: %v", arb, err)
		}
		if res.Breakdown.ArbiterW <= 0 {
			t.Errorf("arbiter %d recorded no energy", arb)
		}
		if res.AvgLatency != base.AvgLatency {
			t.Errorf("arbiter power model must not affect performance")
		}
	}
}
