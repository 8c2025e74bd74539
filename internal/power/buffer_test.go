package power

import (
	"math"
	"testing"
	"testing/quick"

	"orion/internal/tech"
)

func mustBuffer(t *testing.T, cfg BufferConfig) *BufferModel {
	t.Helper()
	m, err := NewBuffer(cfg, tech.Default())
	if err != nil {
		t.Fatalf("NewBuffer(%+v): %v", cfg, err)
	}
	return m
}

// paperWalkthroughBuffer is the buffer of the Section 3.3 walkthrough: 4
// flit buffers per input port, 32-bit flits, one read and one write port.
func paperWalkthroughBuffer(t *testing.T) *BufferModel {
	return mustBuffer(t, BufferConfig{Flits: 4, FlitBits: 32, ReadPorts: 1, WritePorts: 1})
}

func TestBufferConfigValidate(t *testing.T) {
	bad := []BufferConfig{
		{Flits: 0, FlitBits: 32, ReadPorts: 1, WritePorts: 1},
		{Flits: 4, FlitBits: 0, ReadPorts: 1, WritePorts: 1},
		{Flits: 4, FlitBits: 32, ReadPorts: 0, WritePorts: 1},
		{Flits: 4, FlitBits: 32, ReadPorts: 1, WritePorts: -1},
	}
	for i, cfg := range bad {
		if _, err := NewBuffer(cfg, tech.Default()); err == nil {
			t.Errorf("case %d: NewBuffer accepted invalid config %+v", i, cfg)
		}
	}
	var badTech tech.Params
	if _, err := NewBuffer(BufferConfig{Flits: 4, FlitBits: 32, ReadPorts: 1, WritePorts: 1}, badTech); err == nil {
		t.Error("NewBuffer accepted invalid tech params")
	}
}

// TestBufferTable2Equations checks every capacitance equation of Table 2
// against a direct transliteration.
func TestBufferTable2Equations(t *testing.T) {
	p := tech.Default()
	cfg := BufferConfig{Flits: 16, FlitBits: 64, ReadPorts: 2, WritePorts: 1}
	m := mustBuffer(t, cfg)

	B, F := float64(cfg.Flits), float64(cfg.FlitBits)
	ports := float64(cfg.ReadPorts + cfg.WritePorts)

	wantLwl := F * (p.CellWidthUm + 2*ports*p.WireSpacingUm)
	wantLbl := B * (p.CellHeightUm + ports*p.WireSpacingUm)
	approx := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

	if !approx(m.WordlineLenUm, wantLwl) {
		t.Errorf("L_wl = %g, want %g", m.WordlineLenUm, wantLwl)
	}
	if !approx(m.BitlineLenUm, wantLbl) {
		t.Errorf("L_bl = %g, want %g", m.BitlineLenUm, wantLbl)
	}

	wantCwl := 2*F*p.Cg(p.WPass) + p.Ca(m.WordlineDriverW) + p.Cw(wantLwl)
	if !approx(m.CWordline, wantCwl) {
		t.Errorf("C_wl = %g, want %g", m.CWordline, wantCwl)
	}
	wantCbr := B*p.Cd(p.WPass) + p.Cd(p.WPrecharge) + p.Cw(wantLbl)
	if !approx(m.CBitlineR, wantCbr) {
		t.Errorf("C_br = %g, want %g", m.CBitlineR, wantCbr)
	}
	wantCbw := B*p.Cd(p.WPass) + p.Ca(m.BitlineDriverW) + p.Cw(wantLbl)
	if !approx(m.CBitlineW, wantCbw) {
		t.Errorf("C_bw = %g, want %g", m.CBitlineW, wantCbw)
	}
	if !approx(m.CPrecharge, p.Cg(p.WPrecharge)) {
		t.Errorf("C_chg = %g, want %g", m.CPrecharge, p.Cg(p.WPrecharge))
	}
	wantCcell := 2*ports*p.Cd(p.WPass) + 2*p.Ca(p.WCellInv)
	if !approx(m.CCell, wantCcell) {
		t.Errorf("C_cell = %g, want %g", m.CCell, wantCcell)
	}

	// E_read = E_wl + F(E_br + 2E_chg + E_amp)
	wantRead := m.EWordline + F*(m.EBitlineR+2*m.EPrecharge+m.ESenseAmp)
	if !approx(m.ReadEnergy(), wantRead) {
		t.Errorf("E_read = %g, want %g", m.ReadEnergy(), wantRead)
	}
	// E_wrt = E_wl + δ_bw·E_bw + δ_bc·E_cell
	wantWrite := m.EWordline + 10*m.EBitlineW + 3*m.ECell
	if !approx(m.WriteEnergy(10, 3), wantWrite) {
		t.Errorf("E_wrt(10,3) = %g, want %g", m.WriteEnergy(10, 3), wantWrite)
	}
}

func TestBufferWriteEnergyClamping(t *testing.T) {
	m := paperWalkthroughBuffer(t)
	if got, want := m.WriteEnergy(-5, -5), m.EWordline; got != want {
		t.Errorf("negative deltas: %g, want wordline-only %g", got, want)
	}
	over := m.WriteEnergy(1000, 1000)
	if over != m.MaxWriteEnergy() {
		t.Errorf("overflow deltas not clamped: %g vs max %g", over, m.MaxWriteEnergy())
	}
}

func TestBufferEnergyOrdering(t *testing.T) {
	m := paperWalkthroughBuffer(t)
	if m.AvgWriteEnergy() >= m.MaxWriteEnergy() {
		t.Error("average write energy should be below maximum")
	}
	if m.WriteEnergy(0, 0) >= m.AvgWriteEnergy() {
		t.Error("zero-switching write should be cheapest")
	}
	if m.ReadEnergy() <= 0 {
		t.Error("read energy must be positive")
	}
}

// TestBufferMonotonicInSize: deeper or wider buffers must cost more per
// access — the mechanism behind VC16 (8-flit banks) dissipating less than
// WH64 (64-flit bank) in Figure 5(b).
func TestBufferMonotonicInSize(t *testing.T) {
	base := BufferConfig{Flits: 8, FlitBits: 64, ReadPorts: 1, WritePorts: 1}
	m0 := mustBuffer(t, base)

	deeper := base
	deeper.Flits = 64
	m1 := mustBuffer(t, deeper)
	if m1.ReadEnergy() <= m0.ReadEnergy() {
		t.Error("deeper buffer should have higher read energy (longer bitlines)")
	}
	if m1.MaxWriteEnergy() <= m0.MaxWriteEnergy() {
		t.Error("deeper buffer should have higher write energy")
	}

	wider := base
	wider.FlitBits = 256
	m2 := mustBuffer(t, wider)
	if m2.ReadEnergy() <= m0.ReadEnergy() {
		t.Error("wider buffer should have higher read energy (longer wordline, more bitlines)")
	}

	multiport := base
	multiport.ReadPorts, multiport.WritePorts = 2, 2
	m3 := mustBuffer(t, multiport)
	if m3.ReadEnergy() <= m0.ReadEnergy() {
		t.Error("multiported buffer should have higher read energy")
	}
	if m3.AreaUm2() <= m0.AreaUm2() {
		t.Error("multiported buffer should be larger")
	}
}

func TestBufferMonotonicProperty(t *testing.T) {
	p := tech.Default()
	err := quick.Check(func(b1, b2, f1, f2 uint8) bool {
		B1, B2 := int(b1%100)+1, int(b2%100)+1
		F1, F2 := int(f1)+1, int(f2)+1
		if B1 > B2 {
			B1, B2 = B2, B1
		}
		if F1 > F2 {
			F1, F2 = F2, F1
		}
		m1, err1 := NewBuffer(BufferConfig{Flits: B1, FlitBits: F1, ReadPorts: 1, WritePorts: 1}, p)
		m2, err2 := NewBuffer(BufferConfig{Flits: B2, FlitBits: F2, ReadPorts: 1, WritePorts: 1}, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return m1.ReadEnergy() <= m2.ReadEnergy() && m1.MaxWriteEnergy() <= m2.MaxWriteEnergy() &&
			m1.AreaUm2() <= m2.AreaUm2()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBufferStateSwitchingTracking(t *testing.T) {
	m := mustBuffer(t, BufferConfig{Flits: 2, FlitBits: 64, ReadPorts: 1, WritePorts: 1})
	s := NewBufferState(m)

	// First write: all 64 bitlines switch; cells switch per set bit.
	e0 := s.Write([]uint64{0xF})
	want0 := m.WriteEnergy(64, 4)
	if math.Abs(e0-want0) > 1e-30 {
		t.Errorf("first write energy = %g, want %g", e0, want0)
	}

	// Second write of the same value: bitlines unchanged (δ_bw = 0);
	// goes to slot 1 which held 0, so δ_bc = 4.
	e1 := s.Write([]uint64{0xF})
	want1 := m.WriteEnergy(0, 4)
	if math.Abs(e1-want1) > 1e-30 {
		t.Errorf("second write energy = %g, want %g", e1, want1)
	}

	// Third write wraps to slot 0 (holds 0xF) with value 0xF0:
	// δ_bw = Hamming(0xF, 0xF0) = 8, δ_bc = 8.
	e2 := s.Write([]uint64{0xF0})
	want2 := m.WriteEnergy(8, 8)
	if math.Abs(e2-want2) > 1e-30 {
		t.Errorf("third write energy = %g, want %g", e2, want2)
	}

	if s.Read() != m.ReadEnergy() {
		t.Error("state read should equal model read energy")
	}
	if s.Model() != m {
		t.Error("Model() accessor broken")
	}
}

func TestBufferStateIdenticalWritesCheapest(t *testing.T) {
	m := mustBuffer(t, BufferConfig{Flits: 4, FlitBits: 64, ReadPorts: 1, WritePorts: 1})
	err := quick.Check(func(v uint64) bool {
		s := NewBufferState(m)
		s.Write([]uint64{v})
		// After the array is saturated with v, writes cost only the
		// wordline energy.
		for i := 0; i < 4; i++ {
			s.Write([]uint64{v})
		}
		return math.Abs(s.Write([]uint64{v})-m.WriteEnergy(0, 0)) < 1e-30
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestBufferStateRowWidth: a payload shorter than the flit is written
// zero-extended, so the cells and bitlines it leaves are compared as
// zeros, and a payload wider than the flit panics instead of growing the
// row.
func TestBufferStateRowWidth(t *testing.T) {
	m := mustBuffer(t, BufferConfig{Flits: 1, FlitBits: 128, ReadPorts: 1, WritePorts: 1})
	s := NewBufferState(m)
	s.Write([]uint64{0xFF, 0xF})
	// One word: the second word's four set cells and bitlines clear.
	if e, want := s.Write([]uint64{0xFF}), m.WriteEnergy(4, 4); e != want {
		t.Errorf("short write energy = %g, want %g", e, want)
	}
	if e, want := s.Write(nil), m.WriteEnergy(8, 8); e != want {
		t.Errorf("empty write energy = %g, want %g", e, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("a three-word payload into two-word rows did not panic")
		}
	}()
	s.Write([]uint64{1, 2, 3})
}

func TestCopyInto(t *testing.T) {
	dst := make([]uint64, 2)
	copyInto(&dst, []uint64{1, 2, 3})
	if len(dst) != 3 || dst[2] != 3 {
		t.Errorf("copyInto grow failed: %v", dst)
	}
	copyInto(&dst, []uint64{9})
	if dst[0] != 9 || dst[1] != 0 || dst[2] != 0 {
		t.Errorf("copyInto should zero the tail: %v", dst)
	}
}
