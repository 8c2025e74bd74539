package stats

import (
	"orion/internal/power"
	"orion/internal/sim"
)

// This file is the meter's fast event path. The map-based Meter.Listen is
// the readable reference implementation; Freeze flattens the registration
// maps into dense slices indexed by (node, component) and precomputes every
// energy term that does not depend on simulated data, then attaches one
// typed handler per event class via Bus.SubscribeType. The handlers must be
// observably identical to Listen — the golden tests compare the two paths
// bit for bit — so every precomputed constant below is evaluated exactly
// once with the same expression the reference path uses per event, and the
// accumulation order of the per-event additions is preserved.

// frozenTables holds the flattened component lookup and precomputed
// constants. Slice layout:
//
//	buffers: node*ports*vcs + port*vcs + vc
//	arbiters: ((node*2 + class)*2 + stage)*ports + port
//	links/DVS: node*ports + port
//	crossbars/central buffers: node
//
// where class is 0 for switch allocation (EvArbitration) and 1 for virtual
// channel allocation (EvVCAllocation). Absent components are nil, exactly
// as a map miss in the reference path.
type frozenTables struct {
	nodes, ports, vcs int

	buf       []*power.BufferState
	bufFixedW []float64 // AvgWriteEnergy, for the α = 0.5 ablation

	xbar      []*power.CrossbarState
	xbarFixed []float64 // AvgTraversalEnergy
	xbarCtrl  []float64 // CtrlEnergy, charged with output-stage grants

	arb         []*power.ArbiterState
	arbFixedReq []float64 // RequestEnergy(R/2)
	arbGrant    []float64 // GrantEnergy

	link      []*power.LinkState
	linkFixed []float64 // AvgTraversalEnergy
	dvs       []*power.DVSController

	cb       []*power.CentralBufferState
	cbFixedW []float64 // AvgWriteEnergy
	cbFixedR []float64 // AvgReadEnergy
	cbReg    []float64 // standalone pipeline-register latch
}

func (f *frozenTables) bufIdx(node, port, vc int) int {
	if node < 0 || node >= f.nodes || port < 0 || port >= f.ports || vc < 0 || vc >= f.vcs {
		return -1
	}
	return (node*f.ports+port)*f.vcs + vc
}

func (f *frozenTables) arbIdx(node, class, stage, port int) int {
	if node < 0 || node >= f.nodes || stage < 0 || stage > 1 || port < 0 || port >= f.ports {
		return -1
	}
	return ((node*2+class)*2+stage)*f.ports + port
}

func (f *frozenTables) linkIdx(node, port int) int {
	if node < 0 || node >= f.nodes || port < 0 || port >= f.ports {
		return -1
	}
	return node*f.ports + port
}

// freeze builds the flattened tables from the registration maps.
func (m *Meter) freeze() *frozenTables {
	f := &frozenTables{}
	grow := func(node, port, vc int) {
		if node+1 > f.nodes {
			f.nodes = node + 1
		}
		if port+1 > f.ports {
			f.ports = port + 1
		}
		if vc+1 > f.vcs {
			f.vcs = vc + 1
		}
	}
	for k := range m.buffers {
		grow(k.node, k.port, k.vc)
	}
	for k := range m.arbiters {
		grow(k.node, k.port, 0)
	}
	for k := range m.links {
		grow(k.node, k.port, 0)
	}
	for k := range m.dvs {
		grow(k.node, k.port, 0)
	}
	for n := range m.xbars {
		grow(n, 0, 0)
	}
	for n := range m.cbs {
		grow(n, 0, 0)
	}
	if f.ports == 0 {
		f.ports = 1
	}
	if f.vcs == 0 {
		f.vcs = 1
	}

	f.buf = make([]*power.BufferState, f.nodes*f.ports*f.vcs)
	f.bufFixedW = make([]float64, len(f.buf))
	for k, s := range m.buffers {
		i := f.bufIdx(k.node, k.port, k.vc)
		f.buf[i] = s
		f.bufFixedW[i] = s.Model().AvgWriteEnergy()
	}

	f.xbar = make([]*power.CrossbarState, f.nodes)
	f.xbarFixed = make([]float64, f.nodes)
	f.xbarCtrl = make([]float64, f.nodes)
	for n, s := range m.xbars {
		f.xbar[n] = s
		f.xbarFixed[n] = s.Model().AvgTraversalEnergy()
		f.xbarCtrl[n] = s.Model().CtrlEnergy()
	}

	f.arb = make([]*power.ArbiterState, f.nodes*2*2*f.ports)
	f.arbFixedReq = make([]float64, len(f.arb))
	f.arbGrant = make([]float64, len(f.arb))
	for k, s := range m.arbiters {
		class := 0
		if k.class == sim.EvVCAllocation {
			class = 1
		}
		i := f.arbIdx(k.node, class, k.stage, k.port)
		f.arb[i] = s
		model := s.Model()
		f.arbFixedReq[i] = model.RequestEnergy(model.Config.Requesters / 2)
		f.arbGrant[i] = model.GrantEnergy()
	}

	f.link = make([]*power.LinkState, f.nodes*f.ports)
	f.linkFixed = make([]float64, len(f.link))
	f.dvs = make([]*power.DVSController, len(f.link))
	for k, s := range m.links {
		i := f.linkIdx(k.node, k.port)
		f.link[i] = s
		f.linkFixed[i] = s.Model().AvgTraversalEnergy()
	}
	for k, c := range m.dvs {
		f.dvs[f.linkIdx(k.node, k.port)] = c
	}

	f.cb = make([]*power.CentralBufferState, f.nodes)
	f.cbFixedW = make([]float64, f.nodes)
	f.cbFixedR = make([]float64, f.nodes)
	f.cbReg = make([]float64, f.nodes)
	for n, s := range m.cbs {
		f.cb[n] = s
		mo := s.Model()
		f.cbFixedW[n] = mo.AvgWriteEnergy()
		f.cbFixedR[n] = mo.AvgReadEnergy()
		f.cbReg[n] = mo.Regs.LatchEnergy(mo.Config.FlitBits, mo.Config.FlitBits/2)
	}
	return f
}

// AttachBuses subscribes the meter's fast path to the buses (a parallel
// network's per-shard buses, or a single one): registration maps are
// frozen into dense tables and one handler per event type is registered,
// so e.g. a link power model is never invoked for arbitration events.
// Call after all components are registered; later Register* calls are not
// seen by the frozen path. AttachReference is the equivalent map-based
// hookup. The buses share one set of frozen tables, so the dense-table
// allocation is paid once per network rather than once per bus. The
// tables are read-only after freeze; the mutable per-component power
// states they point to are only ever touched by their own node's shard
// bus, so sharing the tables adds no cross-worker contention.
func (m *Meter) AttachBuses(buses ...*sim.Bus) {
	f := m.freeze()
	for _, bus := range buses {
		m.attachFrozen(bus, f)
	}
}

func (m *Meter) attachFrozen(bus *sim.Bus, f *frozenTables) {
	acct := m.account

	bus.SubscribeType(sim.EvBufferWrite, func(e *sim.Event) {
		i := f.bufIdx(e.Node, e.Port, e.VC)
		if i < 0 || f.buf[i] == nil {
			m.fail(e, "no buffer registered at port %d vc %d", e.Port, e.VC)
			return
		}
		if m.fixed {
			acct.Add(e.Node, CompBuffer, f.bufFixedW[i])
			return
		}
		acct.Add(e.Node, CompBuffer, f.buf[i].Write(e.Data))
	})

	bus.SubscribeType(sim.EvBufferRead, func(e *sim.Event) {
		i := f.bufIdx(e.Node, e.Port, e.VC)
		if i < 0 || f.buf[i] == nil {
			m.fail(e, "no buffer registered at port %d vc %d", e.Port, e.VC)
			return
		}
		acct.Add(e.Node, CompBuffer, f.buf[i].Read())
	})

	bus.SubscribeType(sim.EvCrossbarTraversal, func(e *sim.Event) {
		if e.Node < 0 || e.Node >= f.nodes || f.xbar[e.Node] == nil {
			m.fail(e, "no crossbar registered")
			return
		}
		if m.fixed {
			acct.Add(e.Node, CompCrossbar, f.xbarFixed[e.Node])
			return
		}
		en, err := f.xbar[e.Node].Traverse(e.Port, e.OutPort, e.Data)
		if err != nil {
			m.fail(e, "traverse: %v", err)
			return
		}
		acct.Add(e.Node, CompCrossbar, en)
	})

	// One arbitration handler per allocator class; the switch-allocation
	// variant additionally charges the crossbar control lines on
	// output-stage grants (Appendix: E_xb_ctr accounted with E_arb).
	arbHandler := func(class int, chargesCtrl bool) sim.Listener {
		return func(e *sim.Event) {
			i := f.arbIdx(e.Node, class, e.Stage, e.Port)
			if i < 0 || f.arb[i] == nil {
				m.fail(e, "no arbiter registered (stage %d port %d)", e.Stage, e.Port)
				return
			}
			var en float64
			if m.fixed {
				en = f.arbFixedReq[i]
				if e.Winner >= 0 {
					en += f.arbGrant[i]
				}
			} else {
				var err error
				en, err = f.arb[i].Arbitrate(e.ReqVector, e.Winner)
				if err != nil {
					m.fail(e, "arbitrate: %v", err)
					return
				}
			}
			if chargesCtrl && e.Stage == sim.StageOutput && e.Winner >= 0 &&
				e.Node >= 0 && e.Node < f.nodes && f.xbar[e.Node] != nil {
				en += f.xbarCtrl[e.Node]
			}
			acct.Add(e.Node, CompArbiter, en)
		}
	}
	bus.SubscribeType(sim.EvArbitration, arbHandler(0, true))
	bus.SubscribeType(sim.EvVCAllocation, arbHandler(1, false))

	bus.SubscribeType(sim.EvLinkTraversal, func(e *sim.Event) {
		i := f.linkIdx(e.Node, e.Port)
		if i < 0 || f.link[i] == nil {
			m.fail(e, "no link registered at port %d", e.Port)
			return
		}
		scale := 1.0
		if ctrl := f.dvs[i]; ctrl != nil {
			scale = ctrl.EnergyScale(e.Cycle)
		}
		if m.fixed {
			acct.Add(e.Node, CompLink, scale*f.linkFixed[i])
			return
		}
		acct.Add(e.Node, CompLink, scale*f.link[i].Traverse(e.Data))
	})

	bus.SubscribeType(sim.EvCentralBufWrite, func(e *sim.Event) {
		if e.Node < 0 || e.Node >= f.nodes || f.cb[e.Node] == nil {
			m.fail(e, "no central buffer registered")
			return
		}
		if m.fixed {
			acct.Add(e.Node, CompCentralBuffer, f.cbFixedW[e.Node])
			return
		}
		en, err := f.cb[e.Node].Write(e.Port, e.OutPort, e.Data)
		if err != nil {
			m.fail(e, "cb write: %v", err)
			return
		}
		acct.Add(e.Node, CompCentralBuffer, en)
	})

	bus.SubscribeType(sim.EvCentralBufRead, func(e *sim.Event) {
		if e.Node < 0 || e.Node >= f.nodes || f.cb[e.Node] == nil {
			m.fail(e, "no central buffer registered")
			return
		}
		if m.fixed {
			acct.Add(e.Node, CompCentralBuffer, f.cbFixedR[e.Node])
			return
		}
		en, err := f.cb[e.Node].Read(e.Port, e.OutPort, e.Data)
		if err != nil {
			m.fail(e, "cb read: %v", err)
			return
		}
		acct.Add(e.Node, CompCentralBuffer, en)
	})

	bus.SubscribeType(sim.EvPipelineReg, func(e *sim.Event) {
		if e.Node < 0 || e.Node >= f.nodes || f.cb[e.Node] == nil {
			return
		}
		acct.Add(e.Node, CompCentralBuffer, f.cbReg[e.Node])
	})
}

// AttachReference subscribes the map-based reference listener to the bus.
// It is observably identical to AttachBuses (the golden tests assert so) but
// pays a map lookup and a full type switch per event; it exists as the
// oracle the fast path is validated against.
func (m *Meter) AttachReference(bus *sim.Bus) {
	bus.Subscribe(m.Listen)
}
