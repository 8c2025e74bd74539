package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"orion/internal/power"
	"orion/internal/sim"
	"orion/internal/tech"
)

func TestComponentString(t *testing.T) {
	for c := Component(0); c < NumComponents; c++ {
		if strings.HasPrefix(c.String(), "Component(") {
			t.Errorf("component %d has no name", int(c))
		}
	}
	if Component(99).String() != "Component(99)" {
		t.Error("unknown component should format numerically")
	}
}

func TestEnergyAccountGating(t *testing.T) {
	a := NewEnergyAccount(4)
	if a.Recording() {
		t.Fatal("account should start paused (warm-up)")
	}
	a.Add(0, CompBuffer, 5) // ignored: not recording
	a.SetRecording(true)
	a.Add(0, CompBuffer, 5)
	a.Add(0, CompBuffer, 2)
	a.Add(1, CompLink, 3)
	a.Add(-1, CompBuffer, 100)              // ignored: bad node
	a.Add(9, CompBuffer, 100)               // ignored: bad node
	a.Add(0, Component(-1), 100)            // ignored: bad component
	a.Add(0, Component(NumComponents), 100) // ignored

	if got := a.Node(0)[CompBuffer]; got != 7 {
		t.Errorf("node 0 buffer = %g, want 7", got)
	}
	if got := a.NodeTotal(0); got != 7 {
		t.Errorf("node 0 total = %g, want 7", got)
	}
	if got := a.NodeTotal(1); got != 3 {
		t.Errorf("node 1 total = %g, want 3", got)
	}
	if got := a.Total(); got != 10 {
		t.Errorf("total = %g, want 10", got)
	}
	if got := a.ByComponent(); got[CompBuffer] != 7 || got[CompLink] != 3 {
		t.Errorf("by component = %v", got)
	}
	if a.Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4", a.Nodes())
	}
	if (a.Node(-1) != [NumComponents]float64{}) || (a.Node(99) != [NumComponents]float64{}) {
		t.Error("out-of-range Node should be zero")
	}
}

func TestPowerComputation(t *testing.T) {
	a := NewEnergyAccount(2)
	a.SetRecording(true)
	a.Add(0, CompBuffer, 1e-9) // 1 nJ
	a.Add(1, CompLink, 2e-9)

	// P = E·f/cycles (Section 4.1): 1 nJ over 1000 cycles at 1 GHz = 1 mW.
	pb, err := a.Power(1e9, 1000, []float64{0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pb.NodeWatts[0][CompBuffer]; math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("node 0 buffer power = %g, want 1e-3", got)
	}
	if got := pb.NodeTotal(1); math.Abs(got-(2e-3+3)) > 1e-9 {
		t.Errorf("node 1 total (with 3 W constant link) = %g", got)
	}
	if got := pb.Total(); math.Abs(got-(1e-3+2e-3+3)) > 1e-9 {
		t.Errorf("network total = %g", got)
	}
	bc := pb.ByComponent()
	if math.Abs(bc[CompLink]-(2e-3+3)) > 1e-9 {
		t.Errorf("link component power = %g (constant power should fold in)", bc[CompLink])
	}
	if pb.NodeTotal(-1) != 0 || pb.NodeTotal(5) != 0 {
		t.Error("out-of-range NodeTotal should be zero")
	}
}

func TestPowerErrors(t *testing.T) {
	a := NewEnergyAccount(1)
	if _, err := a.Power(1e9, 0, nil, nil); err == nil {
		t.Error("zero cycles should fail")
	}
	if _, err := a.Power(0, 100, nil, nil); err == nil {
		t.Error("zero frequency should fail")
	}
}

func TestLatencySampler(t *testing.T) {
	s := NewLatencySampler()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sampler should report zeros")
	}
	s.RecordPacket(10, 30, 5)
	s.RecordPacket(10, 20, 5)
	if s.Count() != 2 || s.Flits() != 10 {
		t.Errorf("count/flits = %d/%d", s.Count(), s.Flits())
	}
	if s.Mean() != 15 {
		t.Errorf("mean = %g, want 15", s.Mean())
	}
	if s.Min() != 10 || s.Max() != 20 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSaturationRate(t *testing.T) {
	rates := []float64{0.05, 0.10, 0.15, 0.20}
	lats := []float64{12, 14, 30, 200}
	r, ok := SaturationRate(rates, lats, 12)
	if !ok || r != 0.15 {
		t.Errorf("saturation = %g,%v; want 0.15,true", r, ok)
	}
	// Unsorted input must still find the lowest saturating rate.
	r, ok = SaturationRate([]float64{0.2, 0.05, 0.15, 0.1}, []float64{200, 12, 30, 14}, 12)
	if !ok || r != 0.15 {
		t.Errorf("unsorted saturation = %g,%v; want 0.15,true", r, ok)
	}
	if _, ok := SaturationRate(rates, []float64{12, 13, 14, 15}, 12); ok {
		t.Error("non-saturating curve should report ok=false")
	}
	if _, ok := SaturationRate(rates, lats[:2], 12); ok {
		t.Error("length mismatch should report ok=false")
	}
	if _, ok := SaturationRate(rates, lats, 0); ok {
		t.Error("non-positive zero-load should report ok=false")
	}
}

func TestHeatmap(t *testing.T) {
	vals := []float64{0, 1, 2, 3} // (0,0)=0 (1,0)=1 (0,1)=2 (1,1)=3
	s, err := Heatmap(vals, 2, 2, "%.0f")
	if err != nil {
		t.Fatal(err)
	}
	// Top row is y=1.
	want := "2\t3\n0\t1\n"
	if s != want {
		t.Errorf("heatmap = %q, want %q", s, want)
	}
	if _, err := Heatmap(vals, 3, 2, "%.0f"); err == nil {
		t.Error("size mismatch should fail")
	}
}

func testMeter(t *testing.T) (*Meter, *EnergyAccount) {
	t.Helper()
	p := tech.Default()
	acct := NewEnergyAccount(2)
	acct.SetRecording(true)
	m := NewMeter(acct)

	buf, err := power.NewBuffer(power.BufferConfig{Flits: 4, FlitBits: 64, ReadPorts: 1, WritePorts: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterBuffer(0, 1, 0, buf)

	xb, err := power.NewCrossbar(power.CrossbarConfig{Kind: power.MatrixCrossbar, Inputs: 5, Outputs: 5, WidthBits: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterCrossbar(0, xb)

	arb, err := power.NewArbiter(power.ArbiterConfig{Kind: power.MatrixArbiter, Requesters: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterArbiter(0, sim.EvArbitration, sim.StageOutput, 2, arb)

	lnk, err := power.NewLink(power.LinkConfig{Kind: power.OnChipLink, WidthBits: 64, LengthUm: 3000}, p)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterLink(0, 2, lnk)

	cb, err := power.NewCentralBuffer(power.CentralBufferConfig{
		Banks: 2, Rows: 16, FlitBits: 64, ReadPorts: 2, WritePorts: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterCentralBuffer(1, cb)
	return m, acct
}

// bothPaths runs events through the meter's two lookups: Listen on one
// fresh testMeter (the map-based reference) and a sim.Bus attached with
// AttachBuses on another (the frozen dense tables). setup, when not nil,
// runs on each meter first. Both must account the same bits per node and
// component and agree on whether the meter failed. It returns the
// reference meter and its account.
func bothPaths(t *testing.T, setup func(*Meter), events ...*sim.Event) (*Meter, *EnergyAccount) {
	t.Helper()
	ref, refAcct := testMeter(t)
	fast, fastAcct := testMeter(t)
	if setup != nil {
		setup(ref)
		setup(fast)
	}
	var bus sim.Bus
	fast.AttachBuses(&bus)
	for _, e := range events {
		ref.Listen(e)
		*bus.Begin(e.Type, e.Cycle, e.Node) = *e
		bus.Publish()
	}
	for node := 0; node < refAcct.Nodes(); node++ {
		r, f := refAcct.Node(node), fastAcct.Node(node)
		for c := Component(0); c < NumComponents; c++ {
			if math.Float64bits(r[c]) != math.Float64bits(f[c]) {
				t.Errorf("node %d %s: Listen %g, AttachBuses %g", node, c, r[c], f[c])
			}
		}
	}
	if (ref.Err() == nil) != (fast.Err() == nil) {
		t.Errorf("Err: Listen %v, AttachBuses %v", ref.Err(), fast.Err())
	}
	return ref, refAcct
}

func TestMeterDispatch(t *testing.T) {
	data := []uint64{0xABCD}
	m, acct := bothPaths(t, nil,
		&sim.Event{Type: sim.EvBufferWrite, Node: 0, Port: 1, VC: 0, Data: data},
		&sim.Event{Type: sim.EvBufferRead, Node: 0, Port: 1, VC: 0},
		&sim.Event{Type: sim.EvCrossbarTraversal, Node: 0, Port: 1, OutPort: 2, Data: data},
		&sim.Event{Type: sim.EvArbitration, Node: 0, Port: 2, Stage: sim.StageOutput, ReqVector: 0b11, Winner: 0},
		&sim.Event{Type: sim.EvLinkTraversal, Node: 0, Port: 2, Data: data},
		&sim.Event{Type: sim.EvCentralBufWrite, Node: 1, Port: 0, OutPort: 1, Data: data},
		&sim.Event{Type: sim.EvCentralBufRead, Node: 1, Port: 1, OutPort: 0, Data: data})

	if err := m.Err(); err != nil {
		t.Fatalf("meter error: %v", err)
	}
	n0 := acct.Node(0)
	for _, c := range []Component{CompBuffer, CompCrossbar, CompArbiter, CompLink} {
		if n0[c] <= 0 {
			t.Errorf("node 0 %s energy not accumulated", c)
		}
	}
	if acct.Node(1)[CompCentralBuffer] <= 0 {
		t.Error("node 1 central buffer energy not accumulated")
	}
	if m.Account() != acct {
		t.Error("Account accessor broken")
	}
}

// TestMeterArbiterIncludesCtrl: a switch-allocator output-stage grant must
// include the crossbar control energy (Appendix: E_xb_ctr part of E_arb).
func TestMeterArbiterIncludesCtrl(t *testing.T) {
	_, acct := bothPaths(t, nil,
		&sim.Event{Type: sim.EvArbitration, Node: 0, Port: 2, Stage: sim.StageOutput, ReqVector: 0b1, Winner: 0})
	withCtrl := acct.Node(0)[CompArbiter]

	// Same grant but registered as VC allocation: no crossbar control.
	registerVC := func(m *Meter) {
		arb, err := power.NewArbiter(power.ArbiterConfig{Kind: power.MatrixArbiter, Requesters: 4}, tech.Default())
		if err != nil {
			t.Fatal(err)
		}
		m.RegisterArbiter(0, sim.EvVCAllocation, sim.StageOutput, 2, arb)
	}
	_, acct2 := bothPaths(t, registerVC,
		&sim.Event{Type: sim.EvVCAllocation, Node: 0, Port: 2, Stage: sim.StageOutput, ReqVector: 0b1, Winner: 0})
	withoutCtrl := acct2.Node(0)[CompArbiter]

	if withCtrl <= withoutCtrl {
		t.Errorf("switch grant (%g) should exceed VC grant (%g) by E_xb_ctr", withCtrl, withoutCtrl)
	}
}

// TestMeterUnregisteredComponents: an event for a component nobody
// registered fails the run, whether the frozen lookup misses by index
// range (node -1, port 9, stage 2, node past the last) or by a nil entry.
func TestMeterUnregisteredComponents(t *testing.T) {
	events := []*sim.Event{
		{Type: sim.EvBufferWrite, Node: 0, Port: 9, VC: 0},
		{Type: sim.EvBufferWrite, Node: -1, Port: 1, VC: 0},
		{Type: sim.EvBufferWrite, Node: 0, Port: 0, VC: 0},
		{Type: sim.EvBufferRead, Node: 0, Port: 9, VC: 0},
		{Type: sim.EvBufferRead, Node: 0, Port: 1, VC: 3},
		{Type: sim.EvCrossbarTraversal, Node: 1, Port: 0, OutPort: 0},
		{Type: sim.EvCrossbarTraversal, Node: -1, Port: 0, OutPort: 0},
		{Type: sim.EvArbitration, Node: 0, Port: 9, Stage: sim.StageInput, ReqVector: 1, Winner: 0},
		{Type: sim.EvArbitration, Node: 0, Port: 2, Stage: 2, ReqVector: 1, Winner: 0},
		{Type: sim.EvArbitration, Node: -1, Port: 2, Stage: sim.StageOutput, ReqVector: 1, Winner: 0},
		{Type: sim.EvVCAllocation, Node: 0, Port: 2, Stage: sim.StageOutput, ReqVector: 1, Winner: 0},
		{Type: sim.EvLinkTraversal, Node: 0, Port: 9},
		{Type: sim.EvLinkTraversal, Node: -1, Port: 2},
		{Type: sim.EvLinkTraversal, Node: 1, Port: 2},
		{Type: sim.EvCentralBufWrite, Node: 0, Port: 0, OutPort: 0},
		{Type: sim.EvCentralBufWrite, Node: 2, Port: 0, OutPort: 0},
		{Type: sim.EvCentralBufRead, Node: 0, Port: 0, OutPort: 0},
		{Type: sim.EvCentralBufRead, Node: -1, Port: 0, OutPort: 0},
	}
	for _, e := range events {
		if m, _ := bothPaths(t, nil, e); m.Err() == nil {
			t.Errorf("%s at node %d port %d vc %d stage %d on an unregistered component should be an error",
				e.Type, e.Node, e.Port, e.VC, e.Stage)
		}
	}
	// Errors are capped, not unbounded.
	m, _ := testMeter(t)
	for i := 0; i < 100; i++ {
		m.Listen(events[0])
	}
	if len(m.errs) > 16 {
		t.Errorf("error list grew to %d, want cap 16", len(m.errs))
	}
}

func TestMeterBadArbitration(t *testing.T) {
	// Winner 3 did not request.
	m, _ := bothPaths(t, nil,
		&sim.Event{Type: sim.EvArbitration, Node: 0, Port: 2, Stage: sim.StageOutput, ReqVector: 0b1, Winner: 3})
	if m.Err() == nil {
		t.Error("invalid arbitration should surface an error")
	}
}

func TestEnergyAccountAddProperty(t *testing.T) {
	a := NewEnergyAccount(8)
	a.SetRecording(true)
	err := quick.Check(func(node uint8, comp uint8, e float64) bool {
		e = math.Abs(e)
		if math.IsInf(e, 0) || math.IsNaN(e) {
			return true
		}
		before := a.Total()
		a.Add(int(node%8), Component(comp%uint8(NumComponents)), e)
		return a.Total() >= before
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestMeterFixedActivity: with the α = 0.5 ablation every data-dependent
// event costs its model's Avg* energy, independent of the data.
func TestMeterFixedActivity(t *testing.T) {
	m, acct := bothPaths(t, func(m *Meter) { m.SetFixedActivity(true) },
		&sim.Event{Type: sim.EvBufferWrite, Node: 0, Port: 1, VC: 0, Data: []uint64{0}},
		&sim.Event{Type: sim.EvBufferWrite, Node: 0, Port: 1, VC: 0, Data: []uint64{0}},
		&sim.Event{Type: sim.EvCrossbarTraversal, Node: 0, Port: 0, OutPort: 1, Data: []uint64{0}},
		&sim.Event{Type: sim.EvLinkTraversal, Node: 0, Port: 2, Data: []uint64{0}},
		&sim.Event{Type: sim.EvArbitration, Node: 0, Port: 2, Stage: sim.StageOutput, ReqVector: 0b1, Winner: 0},
		&sim.Event{Type: sim.EvCentralBufWrite, Node: 1, Port: 0, OutPort: 0, Data: []uint64{0}},
		&sim.Event{Type: sim.EvCentralBufRead, Node: 1, Port: 0, OutPort: 0, Data: []uint64{0}})
	if err := m.Err(); err != nil {
		t.Fatalf("meter error: %v", err)
	}

	buf := m.buffers[bufKey{0, 1, 0}].Model()
	want := 2 * buf.AvgWriteEnergy()
	if got := acct.Node(0)[CompBuffer]; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("fixed-activity buffer energy = %g, want %g (identical writes must not be free)", got, want)
	}

	xb := m.xbars[0].Model()
	if got := acct.Node(0)[CompCrossbar]; math.Abs(got-xb.AvgTraversalEnergy()) > 1e-30 {
		t.Errorf("fixed-activity crossbar energy = %g, want %g", got, xb.AvgTraversalEnergy())
	}

	lnk := m.links[linkKey{0, 2}].Model()
	if got := acct.Node(0)[CompLink]; math.Abs(got-lnk.AvgTraversalEnergy()) > 1e-30 {
		t.Errorf("fixed-activity link energy = %g, want %g", got, lnk.AvgTraversalEnergy())
	}

	arb := m.arbiters[arbKey{0, sim.EvArbitration, sim.StageOutput, 2}].Model()
	wantArb := arb.AvgRequestEnergy() + arb.GrantEnergy() + xb.CtrlEnergy()
	if got := acct.Node(0)[CompArbiter]; wantArb <= 0 || math.Abs(got-wantArb)/wantArb > 1e-12 {
		t.Errorf("fixed-activity arbitration energy = %g, want E_req(R/2)+E_gnt+E_xb_ctr = %g", got, wantArb)
	}

	cb := m.cbs[1].Model()
	wantCB := cb.AvgWriteEnergy() + cb.AvgReadEnergy()
	if got := acct.Node(1)[CompCentralBuffer]; math.Abs(got-wantCB)/wantCB > 1e-12 {
		t.Errorf("fixed-activity central buffer energy = %g, want %g", got, wantCB)
	}
}

// TestMeterDVSScaling: a registered DVS controller scales link traversal
// energy with Vdd².
func TestMeterDVSScaling(t *testing.T) {
	registerDVS := func(m *Meter) {
		cfg := power.DefaultDVSConfig()
		cfg.WindowCycles = 10
		ctrl, err := power.NewDVSController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RegisterLinkDVS(0, 2, ctrl)
	}
	// Idle two windows: controller drops to 0.6 Vdd → 0.36 energy scale.
	traversal := &sim.Event{Type: sim.EvLinkTraversal, Cycle: 25, Node: 0, Port: 2, Data: []uint64{0xFF}}
	_, acct := bothPaths(t, registerDVS, traversal)
	scaled := acct.Node(0)[CompLink]

	_, acct2 := bothPaths(t, nil, traversal)
	full := acct2.Node(0)[CompLink]

	if full <= 0 {
		t.Fatal("baseline link energy missing")
	}
	if math.Abs(scaled-0.36*full)/full > 1e-9 {
		t.Errorf("DVS-scaled energy = %g, want 0.36 x %g", scaled, full)
	}
}

func TestPowerBreakdownWithStatic(t *testing.T) {
	a := NewEnergyAccount(2)
	a.SetRecording(true)
	a.Add(0, CompBuffer, 1e-9)
	static := make([][NumComponents]float64, 2)
	static[0][CompBuffer] = 0.5
	static[1][CompLink] = 0.25
	pb, err := a.Power(1e9, 1000, nil, static)
	if err != nil {
		t.Fatal(err)
	}
	if got := pb.NodeTotal(0); math.Abs(got-(1e-3+0.5)) > 1e-9 {
		t.Errorf("node 0 total = %g, want dynamic+static", got)
	}
	if got := pb.StaticTotal(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("static total = %g, want 0.75", got)
	}
	bc := pb.ByComponent()
	if math.Abs(bc[CompBuffer]-(1e-3+0.5)) > 1e-9 || math.Abs(bc[CompLink]-0.25) > 1e-12 {
		t.Errorf("by-component with static wrong: %v", bc)
	}
}

func TestLatencyDistribution(t *testing.T) {
	s := NewLatencySampler()
	if s.StdDev() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sampler distribution should be zero")
	}
	for i := 1; i <= 100; i++ {
		s.RecordPacket(0, int64(i), 1)
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("P50 = %g, want 50", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Errorf("P95 = %g, want 95", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Errorf("P99 = %g, want 99", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %g, want min", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %g, want max", got)
	}
	// Std dev of 1..100 ≈ 29.01.
	if got := s.StdDev(); math.Abs(got-29.011) > 0.01 {
		t.Errorf("stddev = %g, want ≈29.01", got)
	}
	// Recording after a percentile query re-sorts correctly.
	s.RecordPacket(0, 1000, 1)
	if got := s.Percentile(100); got != 1000 {
		t.Errorf("P100 after append = %g, want 1000", got)
	}
}
