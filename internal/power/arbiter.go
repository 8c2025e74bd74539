package power

import (
	"fmt"
	"math"
	"math/bits"

	"orion/internal/tech"
)

// ArbiterKind selects one of the three arbiter implementations the paper
// models (Appendix: "matrix arbiter, round-robin arbiter and queuing
// arbiter").
type ArbiterKind int

const (
	// MatrixArbiter keeps a triangular matrix of priority flip-flops;
	// the granted requester's priority drops below all others.
	MatrixArbiter ArbiterKind = iota
	// RoundRobinArbiter keeps a one-hot rotating priority pointer.
	RoundRobinArbiter
	// QueuingArbiter grants in arrival order using a FIFO of requester
	// identifiers; it hierarchically reuses the FIFO buffer model.
	QueuingArbiter
)

// String implements fmt.Stringer.
func (k ArbiterKind) String() string {
	switch k {
	case MatrixArbiter:
		return "matrix"
	case RoundRobinArbiter:
		return "roundrobin"
	case QueuingArbiter:
		return "queuing"
	default:
		return fmt.Sprintf("ArbiterKind(%d)", int(k))
	}
}

// ArbiterConfig holds the architectural parameters of an arbiter (Table 4).
type ArbiterConfig struct {
	// Kind selects the implementation.
	Kind ArbiterKind
	// Requesters is the number of request inputs (R). At most 64 so a
	// request vector fits one word.
	Requesters int
}

// Validate reports an error for a non-physical configuration.
func (c ArbiterConfig) Validate() error {
	if c.Kind != MatrixArbiter && c.Kind != RoundRobinArbiter && c.Kind != QueuingArbiter {
		return fmt.Errorf("power: unknown arbiter kind %d", int(c.Kind))
	}
	if c.Requesters <= 0 || c.Requesters > 64 {
		return fmt.Errorf("power: arbiter requesters must be in [1,64], got %d", c.Requesters)
	}
	return nil
}

// ArbiterModel is the arbiter power model of Table 4. The grant energy is
// charged once per arbitration with no activity factor ("each arbitration
// grants one and only one request"); request and priority line energies use
// switching factors tracked during simulation (use ArbiterState).
type ArbiterModel struct {
	Config ArbiterConfig
	Tech   tech.Params

	// Per-switch capacitances (F).
	CReq   float64 // request line: (R-1) first-level NOR inputs + driver
	CGrant float64 // grant line: second-level NOR drain + inverter
	CInt   float64 // internal node between first- and second-level NOR
	CPri   float64 // priority bit line: two NOR inputs

	// Per-switch energies (J).
	EReq   float64
	EGrant float64
	EInt   float64
	EPri   float64

	// EReqInt = EReq + EInt, the per-request-line toggle cost,
	// precomputed so RequestEnergy on the hot path is one multiply.
	EReqInt float64
	// priBits caches PriorityBits(): R(R-1)/2, R, or 0 by kind.
	priBits int

	// FF is the priority/pointer flip-flop sub-model.
	FF *FlipFlopModel
	// Queue is the request FIFO, present only for queuing arbiters
	// (hierarchical reuse of the buffer model: B = R rows of ⌈log2 R⌉
	// bits).
	Queue *BufferModel
}

// NewArbiter derives the arbiter power model from its configuration.
func NewArbiter(cfg ArbiterConfig, t tech.Params) (*ArbiterModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := &ArbiterModel{Config: cfg, Tech: t}
	R := float64(cfg.Requesters)

	// T_N1 first-level NOR, T_N2 second-level NOR, T_I inverter
	// (Table 4 footnote). Request line i fans out to the R-1 first-level
	// NOR gates comparing it against every other requester.
	reqLoad := math.Max(R-1, 1) * t.Cg(t.WNor)
	m.CReq = reqLoad + t.Ca(t.DriverWidth(reqLoad))
	m.CInt = t.Cd(t.WNor) + t.Cg(t.WNor)
	m.CGrant = t.Cd(t.WNor) + t.Cg(t.WInv) + t.Cd(t.WInv)
	m.CPri = 2 * t.Cg(t.WNor)

	m.EReq = t.EnergyPerSwitch(m.CReq)
	m.EGrant = t.EnergyPerSwitch(m.CGrant)
	m.EInt = t.EnergyPerSwitch(m.CInt)
	m.EPri = t.EnergyPerSwitch(m.CPri)
	m.EReqInt = m.EReq + m.EInt
	switch cfg.Kind {
	case MatrixArbiter:
		m.priBits = cfg.Requesters * (cfg.Requesters - 1) / 2
	case RoundRobinArbiter:
		m.priBits = cfg.Requesters
	}

	ff, err := NewFlipFlop(t)
	if err != nil {
		return nil, err
	}
	m.FF = ff

	if cfg.Kind == QueuingArbiter {
		idBits := bits.Len(uint(cfg.Requesters - 1))
		if idBits == 0 {
			idBits = 1
		}
		q, err := NewBuffer(BufferConfig{
			Flits:      cfg.Requesters,
			FlitBits:   idBits,
			ReadPorts:  1,
			WritePorts: 1,
		}, t)
		if err != nil {
			return nil, err
		}
		m.Queue = q
	}
	return m, nil
}

// GrantEnergy returns E_gnt (+ the crosspoint control energy is accounted
// separately by the caller when the arbiter drives a crossbar).
func (m *ArbiterModel) GrantEnergy() float64 { return m.EGrant }

// RequestEnergy returns the energy of switchingReqs request lines toggling,
// including the first-level NOR internal nodes they flip.
func (m *ArbiterModel) RequestEnergy(switchingReqs int) float64 {
	if switchingReqs < 0 {
		switchingReqs = 0
	}
	if switchingReqs > m.Config.Requesters {
		switchingReqs = m.Config.Requesters
	}
	return float64(switchingReqs) * m.EReqInt
}

// AvgRequestEnergy returns the request energy at α = 0.5: half the
// request lines toggle.
func (m *ArbiterModel) AvgRequestEnergy() float64 {
	return m.RequestEnergy(m.Config.Requesters / 2)
}

// PriorityBits returns the number of priority storage bits: R(R-1)/2 for a
// matrix arbiter, R for a round-robin pointer, 0 for a queuing arbiter.
// The value is precomputed in NewArbiter.
func (m *ArbiterModel) PriorityBits() int {
	return m.priBits
}

// ArbiterState tracks the request lines and priority storage of one
// physical arbiter instance, converting arbitrations into energies.
type ArbiterState struct {
	model   *ArbiterModel
	lastReq uint64
	// all has one bit per requester.
	all uint64
	// row[i] bit j and col[j] bit i are both set when requester i has
	// priority over requester j (matrix arbiter): the priority matrix
	// as bitboards by row and by column, so a grant's flips are two
	// popcounts.
	row, col []uint64
	// ptr is the round-robin pointer position.
	ptr int
	// queue tracks the queuing arbiter's request FIFO switching.
	queue *BufferState
}

// NewArbiterState returns a tracker for one arbiter instance.
func NewArbiterState(m *ArbiterModel) *ArbiterState {
	R := m.Config.Requesters
	s := &ArbiterState{model: m, all: ^uint64(0) >> uint(64-R)}
	if m.Config.Kind == MatrixArbiter {
		// Initial priority: lower index wins.
		s.row = make([]uint64, R)
		s.col = make([]uint64, R)
		for i := range s.row {
			s.row[i] = s.all &^ (uint64(2)<<uint(i) - 1)
			s.col[i] = uint64(1)<<uint(i) - 1
		}
	}
	if m.Config.Kind == QueuingArbiter {
		s.queue = NewBufferState(m.Queue)
	}
	return s
}

// Model returns the underlying capacitance model.
func (s *ArbiterState) Model() *ArbiterModel { return s.model }

// Arbitrate records one arbitration with the given request vector (bit i
// set when requester i requests) and winner (-1 when nothing was granted)
// and returns the energy consumed. The crossbar control energy E_xb_ctr,
// which switches identically with the grant, is the caller's to add when
// the arbiter configures a crossbar.
func (s *ArbiterState) Arbitrate(req uint64, winner int) (float64, error) {
	m := s.model
	R := m.Config.Requesters
	req &= s.all
	if winner >= R {
		return 0, fmt.Errorf("power: arbiter winner %d out of range [0,%d)", winner, R)
	}
	if winner >= 0 && req&(uint64(1)<<uint(winner)) == 0 {
		return 0, fmt.Errorf("power: arbiter winner %d did not request (vector %b)", winner, req)
	}

	dreq := bits.OnesCount64(req ^ s.lastReq)
	s.lastReq = req
	e := m.RequestEnergy(dreq)

	if winner < 0 {
		return e, nil
	}
	e += m.GrantEnergy()

	switch m.Config.Kind {
	case MatrixArbiter:
		// Granted requester drops below all others: row[winner]
		// clears and col[winner] fills. Count actual bit flips, write
		// only the flipped bits' mirrors, and charge the flip-flop
		// latch plus the priority-line loads.
		self := uint64(1) << uint(winner)
		lost := s.row[winner]
		gained := s.all &^ s.col[winner] &^ self
		toggles := bits.OnesCount64(lost) + bits.OnesCount64(gained)
		s.row[winner] = 0
		s.col[winner] = s.all &^ self
		for b := lost; b != 0; b &= b - 1 {
			s.col[bits.TrailingZeros64(b)] &^= self
		}
		for b := gained; b != 0; b &= b - 1 {
			s.row[bits.TrailingZeros64(b)] |= self
		}
		e += m.FF.LatchEnergy(m.PriorityBits(), toggles)
		e += float64(toggles) * m.EPri

	case RoundRobinArbiter:
		// Pointer advances past the winner; one-hot encoding flips
		// two bits when it moves.
		next := (winner + 1) % R
		if next != s.ptr {
			e += m.FF.LatchEnergy(R, 2)
			e += 2 * m.EPri
			s.ptr = next
		} else {
			e += m.FF.LatchEnergy(R, 0)
		}

	case QueuingArbiter:
		// Service order is maintained in the FIFO: a grant pops the
		// head (read). Request arrivals are charged separately via
		// EnqueueRequest.
		e += s.queue.Read()
	}
	return e, nil
}

// EnqueueRequest records, for a queuing arbiter, a new request entering the
// FIFO and returns its energy. Callers invoke it when a requester first
// asserts its request line. For other arbiter kinds it returns 0.
func (s *ArbiterState) EnqueueRequest(requester int) float64 {
	if s.model.Config.Kind != QueuingArbiter || s.queue == nil {
		return 0
	}
	return s.queue.Write([]uint64{uint64(requester)})
}
