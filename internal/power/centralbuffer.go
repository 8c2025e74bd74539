package power

import (
	"fmt"

	"orion/internal/flit"
	"orion/internal/tech"
)

// CentralBufferConfig holds the architectural parameters of a shared
// central buffer (Section 4.4: "a 4-bank central buffer, each 1 flit wide,
// 2560 chunks ... 2 read ports, 2 write ports").
type CentralBufferConfig struct {
	// Banks is the number of SRAM banks; the buffer stores one flit per
	// bank per row.
	Banks int
	// Rows is the number of rows (chunks) per bank.
	Rows int
	// FlitBits is the width of one flit (one bank) in bits.
	FlitBits int
	// ReadPorts and WritePorts are the shared fabric ports.
	ReadPorts, WritePorts int
}

// Validate reports an error for a non-physical configuration.
func (c CentralBufferConfig) Validate() error {
	if c.Banks <= 0 {
		return fmt.Errorf("power: central buffer needs at least one bank, got %d", c.Banks)
	}
	if c.Rows <= 0 {
		return fmt.Errorf("power: central buffer needs at least one row, got %d", c.Rows)
	}
	if c.FlitBits <= 0 {
		return fmt.Errorf("power: central buffer flit width must be positive, got %d", c.FlitBits)
	}
	if c.ReadPorts <= 0 || c.WritePorts <= 0 {
		return fmt.Errorf("power: central buffer needs read and write ports, got %d/%d",
			c.ReadPorts, c.WritePorts)
	}
	return nil
}

// CentralBufferModel is the hierarchical central buffer power model
// (Section 3.2). Central buffers are pipelined shared memories: regular
// SRAM banks connected by pipeline registers, with two crossbars
// facilitating the pipelined data I/O. The model reuses:
//
//   - the FIFO buffer model for the SRAM banks,
//   - the flip-flop sub-model (from the arbiter model) for the pipeline
//     registers, and
//   - the crossbar model for the input and output crossbars.
type CentralBufferModel struct {
	Config CentralBufferConfig
	Tech   tech.Params

	// Bank is the per-bank SRAM model (B = Rows, F = FlitBits).
	Bank *BufferModel
	// InXbar routes write ports to banks; OutXbar routes banks to read
	// ports.
	InXbar, OutXbar *CrossbarModel
	// Regs is the pipeline register model; one FlitBits-wide register
	// stage sits on each side of the SRAM banks.
	Regs *FlipFlopModel
}

// NewCentralBuffer derives the central buffer power model, composing the
// lower-level component models through the hierarchy interface of
// Section 3.2.
func NewCentralBuffer(cfg CentralBufferConfig, t tech.Params) (*CentralBufferModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bank, err := NewBuffer(BufferConfig{
		Flits:      cfg.Rows,
		FlitBits:   cfg.FlitBits,
		ReadPorts:  cfg.ReadPorts,
		WritePorts: cfg.WritePorts,
	}, t)
	if err != nil {
		return nil, err
	}
	inX, err := NewCrossbar(CrossbarConfig{
		Kind:      MatrixCrossbar,
		Inputs:    cfg.WritePorts,
		Outputs:   cfg.Banks,
		WidthBits: cfg.FlitBits,
	}, t)
	if err != nil {
		return nil, err
	}
	outX, err := NewCrossbar(CrossbarConfig{
		Kind:      MatrixCrossbar,
		Inputs:    cfg.Banks,
		Outputs:   cfg.ReadPorts,
		WidthBits: cfg.FlitBits,
	}, t)
	if err != nil {
		return nil, err
	}
	regs, err := NewFlipFlop(t)
	if err != nil {
		return nil, err
	}
	return &CentralBufferModel{
		Config:  cfg,
		Tech:    t,
		Bank:    bank,
		InXbar:  inX,
		OutXbar: outX,
		Regs:    regs,
	}, nil
}

// AreaUm2 returns the central buffer area: all banks plus both crossbars
// (Section 4.4 rectangular-layout estimate).
func (m *CentralBufferModel) AreaUm2() float64 {
	return float64(m.Config.Banks)*m.Bank.AreaUm2() + m.InXbar.AreaUm2() + m.OutXbar.AreaUm2()
}

// AvgWriteEnergy returns the energy of one write at the conventional
// α = 0.5 activity: bank write, input crossbar traversal and write-side
// register latch, each with half its bits switching.
func (m *CentralBufferModel) AvgWriteEnergy() float64 {
	return m.Bank.AvgWriteEnergy() + m.InXbar.AvgTraversalEnergy() +
		m.Regs.LatchEnergy(m.Config.FlitBits, m.Config.FlitBits/2)
}

// AvgReadEnergy returns the energy of one read at α = 0.5: bank read,
// output crossbar traversal and read-side register latch.
func (m *CentralBufferModel) AvgReadEnergy() float64 {
	return m.Bank.ReadEnergy() + m.OutXbar.AvgTraversalEnergy() +
		m.Regs.LatchEnergy(m.Config.FlitBits, m.Config.FlitBits/2)
}

// CentralBufferState tracks switching of one central buffer instance.
type CentralBufferState struct {
	model *CentralBufferModel
	banks []*BufferState
	inX   *CrossbarState
	outX  *CrossbarState
	// last values latched in the write-side and read-side pipeline
	// registers, per port.
	wreg, rreg [][]uint64
	wregOK     []bool
	rregOK     []bool
}

// NewCentralBufferState returns a tracker for one instance.
func NewCentralBufferState(m *CentralBufferModel) *CentralBufferState {
	banks := make([]*BufferState, m.Config.Banks)
	for i := range banks {
		banks[i] = NewBufferState(m.Bank)
	}
	words := flit.PayloadWords(m.Config.FlitBits)
	mk := func(n int) [][]uint64 {
		s := make([][]uint64, n)
		backing := make([]uint64, n*words)
		for i := range s {
			s[i], backing = backing[:words:words], backing[words:]
		}
		return s
	}
	return &CentralBufferState{
		model:  m,
		banks:  banks,
		inX:    NewCrossbarState(m.InXbar),
		outX:   NewCrossbarState(m.OutXbar),
		wreg:   mk(m.Config.WritePorts),
		rreg:   mk(m.Config.ReadPorts),
		wregOK: make([]bool, m.Config.WritePorts),
		rregOK: make([]bool, m.Config.ReadPorts),
	}
}

// Model returns the underlying hierarchical model.
func (s *CentralBufferState) Model() *CentralBufferModel { return s.model }

// Write records a flit entering the central buffer through writePort into
// bank and returns the energy: write-side pipeline register latch, input
// crossbar traversal, and SRAM bank write.
func (s *CentralBufferState) Write(writePort, bank int, data []uint64) (float64, error) {
	if writePort < 0 || writePort >= s.model.Config.WritePorts {
		return 0, fmt.Errorf("power: central buffer write port %d out of range [0,%d)",
			writePort, s.model.Config.WritePorts)
	}
	if bank < 0 || bank >= s.model.Config.Banks {
		return 0, fmt.Errorf("power: central buffer bank %d out of range [0,%d)",
			bank, s.model.Config.Banks)
	}
	bitsW := s.model.Config.FlitBits
	var toggles int
	if s.wregOK[writePort] {
		toggles = flit.Hamming(s.wreg[writePort], data)
	} else {
		toggles = flit.Ones(data)
		s.wregOK[writePort] = true
	}
	copyInto(&s.wreg[writePort], data)
	e := s.model.Regs.LatchEnergy(bitsW, toggles)
	ex, err := s.inX.Traverse(writePort, bank, data)
	if err != nil {
		return 0, err
	}
	e += ex
	e += s.banks[bank].Write(data)
	return e, nil
}

// Read records a flit leaving the central buffer from bank through readPort
// and returns the energy: SRAM bank read, output crossbar traversal, and
// read-side pipeline register latch.
func (s *CentralBufferState) Read(bank, readPort int, data []uint64) (float64, error) {
	if readPort < 0 || readPort >= s.model.Config.ReadPorts {
		return 0, fmt.Errorf("power: central buffer read port %d out of range [0,%d)",
			readPort, s.model.Config.ReadPorts)
	}
	if bank < 0 || bank >= s.model.Config.Banks {
		return 0, fmt.Errorf("power: central buffer bank %d out of range [0,%d)",
			bank, s.model.Config.Banks)
	}
	e := s.banks[bank].Read()
	ex, err := s.outX.Traverse(bank, readPort, data)
	if err != nil {
		return 0, err
	}
	e += ex
	bitsW := s.model.Config.FlitBits
	var toggles int
	if s.rregOK[readPort] {
		toggles = flit.Hamming(s.rreg[readPort], data)
	} else {
		toggles = flit.Ones(data)
		s.rregOK[readPort] = true
	}
	copyInto(&s.rreg[readPort], data)
	e += s.model.Regs.LatchEnergy(bitsW, toggles)
	return e, nil
}
