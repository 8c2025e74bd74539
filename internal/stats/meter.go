package stats

import (
	"fmt"
	"sync"

	"orion/internal/power"
	"orion/internal/sim"
)

// Meter hooks power models to the simulation event bus (the paper's
// Figure 1 flow: events trigger power models, which calculate and
// accumulate the energy consumed). The network builder registers one model
// instance per physical component; the meter owns the per-instance
// switching-activity trackers.
type Meter struct {
	account *EnergyAccount

	buffers  map[bufKey]*power.BufferState
	xbars    map[int]*power.CrossbarState // per node
	arbiters map[arbKey]*power.ArbiterState
	links    map[linkKey]*power.LinkState
	cbs      map[int]*power.CentralBufferState // per node
	dvs      map[linkKey]*power.DVSController

	// fixed replaces tracked switching with the conventional α = 0.5
	// activity assumption (the ablation of DESIGN.md: "data-dependent
	// switching vs fixed α").
	fixed bool

	// errs collects events that could not be attributed (misconfigured
	// registration); surfaced via Err. errMu makes the cold failure path
	// safe with several tick workers, where each shard bus drives the
	// meter's handlers from its own worker goroutine.
	errMu sync.Mutex
	errs  []error
}

type bufKey struct{ node, port, vc int }
type arbKey struct {
	node  int
	class sim.EventType // EvArbitration (switch) or EvVCAllocation
	stage int
	port  int
}
type linkKey struct{ node, port int }

// NewMeter returns a meter accumulating into the given account.
func NewMeter(account *EnergyAccount) *Meter {
	return &Meter{
		account:  account,
		buffers:  make(map[bufKey]*power.BufferState),
		xbars:    make(map[int]*power.CrossbarState),
		arbiters: make(map[arbKey]*power.ArbiterState),
		links:    make(map[linkKey]*power.LinkState),
		cbs:      make(map[int]*power.CentralBufferState),
		dvs:      make(map[linkKey]*power.DVSController),
	}
}

// Account returns the meter's energy account.
func (m *Meter) Account() *EnergyAccount { return m.account }

// SetFixedActivity switches between tracked switching activity (the
// paper's approach) and a fixed α = 0.5 assumption for all data-dependent
// energies. Used by the activity-tracking ablation.
func (m *Meter) SetFixedActivity(on bool) { m.fixed = on }

// RegisterBuffer attaches a buffer model to (node, port, vc). Wormhole
// routers use vc 0.
func (m *Meter) RegisterBuffer(node, port, vc int, model *power.BufferModel) {
	m.buffers[bufKey{node, port, vc}] = power.NewBufferState(model)
}

// RegisterCrossbar attaches the node's switch crossbar model.
func (m *Meter) RegisterCrossbar(node int, model *power.CrossbarModel) {
	m.xbars[node] = power.NewCrossbarState(model)
}

// RegisterArbiter attaches an arbiter model for the given allocator class
// (sim.EvArbitration for switch allocation, sim.EvVCAllocation for virtual
// channel allocation), stage and port index.
func (m *Meter) RegisterArbiter(node int, class sim.EventType, stage, port int, model *power.ArbiterModel) {
	m.arbiters[arbKey{node, class, stage, port}] = power.NewArbiterState(model)
}

// RegisterLink attaches a link model to a node's output port.
func (m *Meter) RegisterLink(node, port int, model *power.LinkModel) {
	m.links[linkKey{node, port}] = power.NewLinkState(model)
}

// RegisterCentralBuffer attaches the node's central buffer model.
func (m *Meter) RegisterCentralBuffer(node int, model *power.CentralBufferModel) {
	m.cbs[node] = power.NewCentralBufferState(model)
}

// RegisterLinkDVS attaches a dynamic-voltage-scaling controller to a
// node's output link; traversal energies scale with the controller's
// current Vdd².
func (m *Meter) RegisterLinkDVS(node, port int, ctrl *power.DVSController) {
	m.dvs[linkKey{node, port}] = ctrl
}

// ModelFor returns the power model Listen charges for e — a
// *power.BufferModel, *power.CrossbarModel, *power.ArbiterModel,
// *power.LinkModel or *power.CentralBufferModel — or nil when none is
// registered (testing hook).
func (m *Meter) ModelFor(e *sim.Event) any {
	switch e.Type {
	case sim.EvBufferWrite, sim.EvBufferRead:
		if s, ok := m.buffers[bufKey{e.Node, e.Port, e.VC}]; ok {
			return s.Model()
		}
	case sim.EvCrossbarTraversal:
		if s, ok := m.xbars[e.Node]; ok {
			return s.Model()
		}
	case sim.EvArbitration, sim.EvVCAllocation:
		if s, ok := m.arbiters[arbKey{e.Node, e.Type, e.Stage, e.Port}]; ok {
			return s.Model()
		}
	case sim.EvLinkTraversal:
		if s, ok := m.links[linkKey{e.Node, e.Port}]; ok {
			return s.Model()
		}
	case sim.EvCentralBufWrite, sim.EvCentralBufRead:
		if s, ok := m.cbs[e.Node]; ok {
			return s.Model()
		}
	}
	return nil
}

// Err returns the first attribution error, or nil. Attribution errors mean
// a module emitted an event for a component that was never registered — a
// builder bug, not a workload property.
func (m *Meter) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if len(m.errs) == 0 {
		return nil
	}
	return m.errs[0]
}

func (m *Meter) fail(e *sim.Event, format string, args ...any) {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	// Cap retained errors; one is enough to fail a run and they are all
	// alike.
	if len(m.errs) < 16 {
		err := fmt.Errorf("stats: cycle %d node %d %s: %s",
			e.Cycle, e.Node, e.Type, fmt.Sprintf(format, args...))
		m.errs = append(m.errs, err)
	}
}

// Listen implements sim.Listener; subscribe it to the engine's bus. It is
// the reference lookup: the registration maps and one type switch. The
// frozen handlers of AttachBuses find the same component state by dense
// index; both hand it to the event class's one charging method below.
func (m *Meter) Listen(e *sim.Event) {
	switch e.Type {
	case sim.EvBufferWrite:
		m.bufferWrite(e, m.buffers[bufKey{e.Node, e.Port, e.VC}])
	case sim.EvBufferRead:
		m.bufferRead(e, m.buffers[bufKey{e.Node, e.Port, e.VC}])
	case sim.EvCrossbarTraversal:
		m.crossbar(e, m.xbars[e.Node])
	case sim.EvArbitration:
		m.arbitrate(e, m.arbiters[arbKey{e.Node, e.Type, e.Stage, e.Port}], m.xbars[e.Node])
	case sim.EvVCAllocation:
		m.arbitrate(e, m.arbiters[arbKey{e.Node, e.Type, e.Stage, e.Port}], nil)
	case sim.EvLinkTraversal:
		k := linkKey{e.Node, e.Port}
		m.link(e, m.links[k], m.dvs[k])
	case sim.EvCentralBufWrite:
		m.cbWrite(e, m.cbs[e.Node])
	case sim.EvCentralBufRead:
		m.cbRead(e, m.cbs[e.Node])
	}
}

// The charging methods below price one event each against the component
// state the caller looked up. A nil state means no component is
// registered there, which fails the run.

func (m *Meter) bufferWrite(e *sim.Event, s *power.BufferState) {
	if s == nil {
		m.fail(e, "no buffer registered at port %d vc %d", e.Port, e.VC)
		return
	}
	if m.fixed {
		m.account.Add(e.Node, CompBuffer, s.Model().AvgWriteEnergy())
		return
	}
	m.account.Add(e.Node, CompBuffer, s.Write(e.Data))
}

func (m *Meter) bufferRead(e *sim.Event, s *power.BufferState) {
	if s == nil {
		m.fail(e, "no buffer registered at port %d vc %d", e.Port, e.VC)
		return
	}
	m.account.Add(e.Node, CompBuffer, s.Read())
}

func (m *Meter) crossbar(e *sim.Event, s *power.CrossbarState) {
	if s == nil {
		m.fail(e, "no crossbar registered")
		return
	}
	if m.fixed {
		m.account.Add(e.Node, CompCrossbar, s.Model().AvgTraversalEnergy())
		return
	}
	en, err := s.Traverse(e.Port, e.OutPort, e.Data)
	if err != nil {
		m.fail(e, "traverse: %v", err)
		return
	}
	m.account.Add(e.Node, CompCrossbar, en)
}

// arbitrate charges a switch or virtual-channel allocation. xb is the
// node's crossbar for switch allocation and nil for VC allocation: a
// switch-allocator output-stage grant drives the crossbar control lines,
// and E_xb_ctr is accounted as part of E_arb (Appendix).
func (m *Meter) arbitrate(e *sim.Event, s *power.ArbiterState, xb *power.CrossbarState) {
	if s == nil {
		m.fail(e, "no arbiter registered (stage %d port %d)", e.Stage, e.Port)
		return
	}
	var en float64
	if m.fixed {
		model := s.Model()
		en = model.AvgRequestEnergy()
		if e.Winner >= 0 {
			en += model.GrantEnergy()
		}
	} else {
		var err error
		en, err = s.Arbitrate(e.ReqVector, e.Winner)
		if err != nil {
			m.fail(e, "arbitrate: %v", err)
			return
		}
	}
	if xb != nil && e.Stage == sim.StageOutput && e.Winner >= 0 {
		en += xb.Model().CtrlEnergy()
	}
	m.account.Add(e.Node, CompArbiter, en)
}

// link charges a link traversal, scaled by the link's DVS controller's
// current Vdd² when dvs is not nil.
func (m *Meter) link(e *sim.Event, s *power.LinkState, dvs *power.DVSController) {
	if s == nil {
		m.fail(e, "no link registered at port %d", e.Port)
		return
	}
	scale := 1.0
	if dvs != nil {
		scale = dvs.EnergyScale(e.Cycle)
	}
	if m.fixed {
		m.account.Add(e.Node, CompLink, scale*s.Model().AvgTraversalEnergy())
		return
	}
	m.account.Add(e.Node, CompLink, scale*s.Traverse(e.Data))
}

func (m *Meter) cbWrite(e *sim.Event, s *power.CentralBufferState) {
	if s == nil {
		m.fail(e, "no central buffer registered")
		return
	}
	if m.fixed {
		m.account.Add(e.Node, CompCentralBuffer, s.Model().AvgWriteEnergy())
		return
	}
	en, err := s.Write(e.Port, e.OutPort, e.Data)
	if err != nil {
		m.fail(e, "cb write: %v", err)
		return
	}
	m.account.Add(e.Node, CompCentralBuffer, en)
}

func (m *Meter) cbRead(e *sim.Event, s *power.CentralBufferState) {
	if s == nil {
		m.fail(e, "no central buffer registered")
		return
	}
	if m.fixed {
		m.account.Add(e.Node, CompCentralBuffer, s.Model().AvgReadEnergy())
		return
	}
	en, err := s.Read(e.Port, e.OutPort, e.Data)
	if err != nil {
		m.fail(e, "cb read: %v", err)
		return
	}
	m.account.Add(e.Node, CompCentralBuffer, en)
}
