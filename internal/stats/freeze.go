package stats

import (
	"orion/internal/power"
	"orion/internal/sim"
)

// This file is the meter's fast event path. The map-based Meter.Listen is
// the readable reference lookup; freeze flattens the registration maps into
// dense slices of component-state pointers indexed by (node, component),
// and AttachBuses subscribes one typed handler per event class via
// Bus.SubscribeType. Each handler only finds the component state by dense
// index and calls the same charging method Listen calls, so the two paths
// differ in lookup and dispatch alone; the golden tests compare them bit
// for bit.

// frozenTables holds the flattened component lookup. Slice layout:
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

	buf  []*power.BufferState
	xbar []*power.CrossbarState
	arb  []*power.ArbiterState
	link []*power.LinkState
	dvs  []*power.DVSController
	cb   []*power.CentralBufferState
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

func (f *frozenTables) nodeIdx(node int) int {
	if node < 0 || node >= f.nodes {
		return -1
	}
	return node
}

// at returns table entry i, or nil when i is -1 (out of range).
func at[T any](table []*T, i int) *T {
	if i < 0 {
		return nil
	}
	return table[i]
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
	for k, s := range m.buffers {
		f.buf[f.bufIdx(k.node, k.port, k.vc)] = s
	}
	f.xbar = make([]*power.CrossbarState, f.nodes)
	for n, s := range m.xbars {
		f.xbar[n] = s
	}
	f.arb = make([]*power.ArbiterState, f.nodes*2*2*f.ports)
	for k, s := range m.arbiters {
		class := 0
		if k.class == sim.EvVCAllocation {
			class = 1
		}
		f.arb[f.arbIdx(k.node, class, k.stage, k.port)] = s
	}
	f.link = make([]*power.LinkState, f.nodes*f.ports)
	for k, s := range m.links {
		f.link[f.linkIdx(k.node, k.port)] = s
	}
	f.dvs = make([]*power.DVSController, len(f.link))
	for k, c := range m.dvs {
		f.dvs[f.linkIdx(k.node, k.port)] = c
	}
	f.cb = make([]*power.CentralBufferState, f.nodes)
	for n, s := range m.cbs {
		f.cb[n] = s
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
		bus.SubscribeType(sim.EvBufferWrite, func(e *sim.Event) {
			m.bufferWrite(e, at(f.buf, f.bufIdx(e.Node, e.Port, e.VC)))
		})
		bus.SubscribeType(sim.EvBufferRead, func(e *sim.Event) {
			m.bufferRead(e, at(f.buf, f.bufIdx(e.Node, e.Port, e.VC)))
		})
		bus.SubscribeType(sim.EvCrossbarTraversal, func(e *sim.Event) {
			m.crossbar(e, at(f.xbar, f.nodeIdx(e.Node)))
		})
		bus.SubscribeType(sim.EvArbitration, func(e *sim.Event) {
			m.arbitrate(e, at(f.arb, f.arbIdx(e.Node, 0, e.Stage, e.Port)), at(f.xbar, f.nodeIdx(e.Node)))
		})
		bus.SubscribeType(sim.EvVCAllocation, func(e *sim.Event) {
			m.arbitrate(e, at(f.arb, f.arbIdx(e.Node, 1, e.Stage, e.Port)), nil)
		})
		bus.SubscribeType(sim.EvLinkTraversal, func(e *sim.Event) {
			i := f.linkIdx(e.Node, e.Port)
			m.link(e, at(f.link, i), at(f.dvs, i))
		})
		bus.SubscribeType(sim.EvCentralBufWrite, func(e *sim.Event) {
			m.cbWrite(e, at(f.cb, f.nodeIdx(e.Node)))
		})
		bus.SubscribeType(sim.EvCentralBufRead, func(e *sim.Event) {
			m.cbRead(e, at(f.cb, f.nodeIdx(e.Node)))
		})
	}
}

// AttachReference subscribes the map-based reference listener to the bus.
// It is observably identical to AttachBuses (the golden tests assert so) but
// pays a map lookup and a full type switch per event; it exists as the
// oracle the fast path is validated against.
func (m *Meter) AttachReference(bus *sim.Bus) {
	bus.Subscribe(m.Listen)
}
