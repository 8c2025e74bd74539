package experiments

import (
	"math"
	"strings"
	"testing"

	"orion"
)

// holds fails the test for every predicate that does not hold on r.
func holds(t *testing.T, r *Report, preds ...Predicate) {
	t.Helper()
	for _, p := range preds {
		if err := p.Check(r); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestFigure5Smoke runs the Figure 5 pipeline at tiny scale.
func TestFigure5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure smoke test")
	}
	opt := Options{SamplePackets: 300, Seed: 2}
	curves, err := Figure5(opt, []float64{0.04, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("got %d curves", len(curves))
	}
	labels := []string{"WH64", "VC16", "VC64", "VC128"}
	for i, c := range curves {
		if c.Label != labels[i] {
			t.Errorf("curve %d label = %q", i, c.Label)
		}
		if len(c.Points) != 2 {
			t.Fatalf("%s has %d points", c.Label, len(c.Points))
		}
		if c.ZeroLoad <= 0 {
			t.Errorf("%s zero-load missing", c.Label)
		}
		for _, pt := range c.Points {
			if pt.Failed || pt.Latency <= 0 || pt.PowerW <= 0 {
				t.Errorf("%s point %+v incomplete", c.Label, pt)
			}
		}
		// Power grows with rate.
		if c.Points[1].PowerW <= c.Points[0].PowerW {
			t.Errorf("%s power should grow with rate", c.Label)
		}
	}
	// The Figure 5(b) power orderings and the 5(a) deviation.
	holds(t, &Report{Fig5: curves}, vc16PowerBelowWH64, vc128PowerAboveVC64, noWH64VC16Crossover)
}

func TestFigure6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure smoke test")
	}
	// The total network rate is only 0.2 pkt/cycle, so per-node power
	// needs a reasonable sample to settle.
	opt := Options{SamplePackets: 2000, Seed: 2}
	uniform, broadcast, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform: flat map. Broadcast: source hottest; same-x columns
	// (excluding the source column) near-identical (Section 4.3's
	// routing observation).
	holds(t, &Report{Fig6Uniform: uniform, Fig6Broadcast: broadcast},
		uniformFlat, sourceHottest, sourceOverMean5, decaysWithDistance, yFirstAsymmetry, columnsUniform)
}

func TestFigure7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure smoke test")
	}
	opt := Options{SamplePackets: 400, Seed: 2}
	curves, err := Figure7(opt, []float64{0.04, 0.10}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || curves[0].Label != "XB" || curves[1].Label != "CB" {
		t.Fatalf("unexpected curves %+v", curves)
	}
	// Figure 7(a): CB slower at 0.10; 7(b): CB costs more power.
	xb, cb := curves[0].Points[1], curves[1].Points[1]
	if !cb.Failed && !xb.Failed && cb.Latency <= xb.Latency {
		t.Errorf("CB latency %.1f should exceed XB %.1f at 0.10", cb.Latency, xb.Latency)
	}

	// Links dominate chip-to-chip power (Figure 7(c)); the central buffer
	// dominates CB's router share (Figure 7(f)).
	holds(t, &Report{Fig7: curves, Fig7XB: &curves[0].Points[0], Fig7CB: &curves[1].Points[0]},
		cbPowerAboveXB, cbRouterPower5x, linksDominateC2C, centralBufferDominatesCB, xbInputBuffersLead)
}

func TestFigure5BreakdownShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	curves, err := Figure5(Options{SamplePackets: 600, Seed: 3}, []float64{0.08})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5(c) shape: router datapath dominates, arbiter < 1%.
	holds(t, &Report{Fig5c: pointAt(curves, "VC64", 0.08)}, datapathDominates, arbiterUnder1Pct, onChipLinkShare, crossbarOutweighsBuffers)
}

func TestWalkthroughReport(t *testing.T) {
	rep, err := Walkthrough()
	if err != nil {
		t.Fatal(err)
	}
	// The walkthrough router has 4-flit, 32-bit buffers — everything in
	// the low-pJ range for 0.1 µm at 1.2 V.
	if rep.FlitEnergyJ < 1e-12 || rep.FlitEnergyJ > 1e-9 {
		t.Errorf("E_flit = %g J, outside plausible range", rep.FlitEnergyJ)
	}
	holds(t, &Report{Walkthrough: rep}, walkthroughSums, arbitrationMinor)
}

// BenchmarkWalkthroughFlitEnergy evaluates the per-flit energy composition
// E_flit = E_wrt + E_arb + E_read + E_xb + E_link for the walkthrough
// router (5 ports, 4-flit buffers, 32-bit flits, 5×5 crossbar, 4:1
// arbiters).
func BenchmarkWalkthroughFlitEnergy(b *testing.B) {
	var rep *orion.EnergyReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Walkthrough()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.FlitEnergyJ*1e12, "Eflit-pJ")
}

func TestExperimentOptionsApply(t *testing.T) {
	cfg := orion.OnChip4x4(orion.VC16(), 0.1)
	Options{SamplePackets: 123, MaxCycles: 456, Seed: 7}.apply(&cfg)
	if cfg.Sim.SamplePackets != 123 || cfg.Sim.MaxCycles != 456 || cfg.Traffic.Seed != 7 {
		t.Errorf("apply did not fold options: %+v", cfg.Sim)
	}
	// Zero options leave the config untouched.
	before := cfg
	Options{}.apply(&cfg)
	if cfg.Sim.SamplePackets != before.Sim.SamplePackets || cfg.Traffic.Seed != 0 {
		t.Error("zero options should only reset the seed")
	}
}

func TestFigRates(t *testing.T) {
	if len(Fig5Rates()) == 0 || len(Fig7Rates()) == 0 {
		t.Error("default rate lists empty")
	}
	for i, r := range Fig5Rates() {
		if i > 0 && r <= Fig5Rates()[i-1] {
			t.Error("Fig5 rates must increase")
		}
	}
}

// TestPredicatesNeedTheirFigure: a predicate over a figure that was not
// run fails instead of holding vacuously.
func TestPredicatesNeedTheirFigure(t *testing.T) {
	for _, v := range Summary {
		for _, p := range v.Predicates {
			if p.Check(&Report{}) == nil {
				t.Errorf("%q holds on an empty report", p.Name)
			}
		}
	}
}

// TestMarkdownMarkers: a block sits between its own open and close marker
// lines, and a report renders only the figures it ran.
func TestMarkdownMarkers(t *testing.T) {
	rep, err := Run(Options{}, "walkthrough")
	if err != nil {
		t.Fatal(err)
	}
	blocks := rep.Blocks()
	if len(blocks) != 1 || blocks[0].Name != "walkthrough" {
		t.Fatalf("blocks = %+v, want the walkthrough alone", blocks)
	}
	md := Markdown(blocks)
	if !strings.HasPrefix(md, openMarker("walkthrough")+"\n| term |") || !strings.HasSuffix(md, "|\n"+closeMarker("walkthrough")+"\n") {
		t.Errorf("markdown = %q", md)
	}
}

// TestMeanByDistance pins the torus distances from the broadcast source
// (1,2): one node at each of 0 and 4 hops.
func TestMeanByDistance(t *testing.T) {
	p := make([]float64, 16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			p[node(x, y)] = float64(10*x + y)
		}
	}
	m := meanByDistance(p)
	if len(m) != 5 || m[0] != p[node(1, 2)] || m[4] != p[node(3, 0)] {
		t.Errorf("mean by distance = %v", m)
	}
	if math.IsNaN(m[1]) || math.IsNaN(m[2]) || math.IsNaN(m[3]) {
		t.Errorf("empty distance class: %v", m)
	}
}
