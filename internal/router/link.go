package router

import (
	"fmt"

	"orion/internal/fault"
	"orion/internal/flit"
	"orion/internal/sim"
)

// linkSide is the part of a router its links see: the per-port data and
// credit wires, the output bandwidth governors and the fault view. The
// crossbar and central-buffered routers embed it and differ only in the
// fabric between their input buffers and their outputs (Section 4.4), so
// link traversal, fault and DVS semantics are written once, here.
type linkSide struct {
	name string
	node int
	cfg  Config
	bus  *sim.Bus

	inData  []*sim.Wire[*flit.Flit]
	inCred  []*sim.Wire[flit.Credit]
	outData []*sim.Wire[*flit.Flit]
	outCred []*sim.Wire[flit.Credit]

	// Output bandwidth governors (e.g. DVS link controllers) and the
	// next cycle each output may send.
	govs    []OutputGovernor
	outFree []int64

	// Fault injection view (nil for fault-free routers — the hot path
	// then pays one nil check per stage) and the network's dropped-flit
	// observer.
	faults *fault.NodeFaults
	onDrop DropHandler
}

func newLinkSide(name string, node int, cfg Config, bus *sim.Bus) linkSide {
	return linkSide{
		name:    name,
		node:    node,
		cfg:     cfg,
		bus:     bus,
		inData:  make([]*sim.Wire[*flit.Flit], cfg.Ports),
		inCred:  make([]*sim.Wire[flit.Credit], cfg.Ports),
		outData: make([]*sim.Wire[*flit.Flit], cfg.Ports),
		outCred: make([]*sim.Wire[flit.Credit], cfg.Ports),
		govs:    make([]OutputGovernor, cfg.Ports),
		outFree: make([]int64, cfg.Ports),
	}
}

// Name implements sim.Module.
func (l *linkSide) Name() string { return l.name }

// Node returns the router's node index.
func (l *linkSide) Node() int { return l.node }

// AttachInput implements Router.
func (l *linkSide) AttachInput(port int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit]) error {
	if port < 0 || port >= l.cfg.Ports {
		return fmt.Errorf("router: input port %d out of range [0,%d)", port, l.cfg.Ports)
	}
	l.inData[port] = data
	l.inCred[port] = credit
	return nil
}

// attachOutput connects an output port's wires; each router's
// AttachOutput then sets up its own downstream credit counters.
func (l *linkSide) attachOutput(port int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit]) error {
	if port < 0 || port >= l.cfg.Ports {
		return fmt.Errorf("router: output port %d out of range [0,%d)", port, l.cfg.Ports)
	}
	l.outData[port] = data
	l.outCred[port] = credit
	return nil
}

// SetGovernor implements Router.
func (l *linkSide) SetGovernor(port int, gov OutputGovernor) error {
	if port < 0 || port >= l.cfg.Ports {
		return fmt.Errorf("router: governor port %d out of range [0,%d)", port, l.cfg.Ports)
	}
	l.govs[port] = gov
	return nil
}

// SetFaults implements Router.
func (l *linkSide) SetFaults(nf *fault.NodeFaults, onDrop DropHandler) {
	l.faults = nf
	l.onDrop = onDrop
}

// isEjection reports whether the port is the local ejection port (the
// highest port index by convention).
func (l *linkSide) isEjection(port int) bool { return port == l.cfg.Ports-1 }

// returnCredit returns an input buffer slot of the given VC upstream.
func (l *linkSide) returnCredit(port, vc int) error {
	if w := l.inCred[port]; w != nil {
		return w.Send(flit.Credit{VC: vc})
	}
	return nil
}

// dropStarts reports whether f is a head flit meeting an active LinkDrop
// window on output o: the link then swallows its whole packet. The
// ejection port needs no check of its own: fault.Config.Validate rejects
// faults on the local port.
func (l *linkSide) dropStarts(o int, f *flit.Flit, cycle int64) bool {
	return l.faults != nil && f.Kind.IsHead() && l.faults.LinkDropping(o, cycle)
}

// drop hands a flit a faulted link swallowed to the drop accounting
// instead of the wire.
func (l *linkSide) drop(f *flit.Flit, cycle int64) {
	l.faults.CountDrop(f.Kind.IsHead())
	if l.onDrop != nil {
		l.onDrop(f, cycle)
	}
}

// send drives f onto output o. A network link counts the hop, publishes
// the traversal, may corrupt the payload and charges the output's
// governor; the ejection port only hands the flit over.
func (l *linkSide) send(o int, f *flit.Flit, cycle int64) error {
	if !l.isEjection(o) {
		f.Hop++
		ev := l.bus.Begin(sim.EvLinkTraversal, cycle, l.node)
		ev.Port, ev.Data = o, f.Payload
		l.bus.Publish()
		if l.faults != nil {
			// Corrupt after the link event (the sender drives the
			// original bits) so only downstream activity — buffer writes
			// onward — sees the flipped payload.
			l.faults.Corrupt(o, cycle, f.Payload, l.cfg.FlitBits)
		}
		if gov := l.govs[o]; gov != nil {
			gov.OnSend(cycle)
			l.outFree[o] = cycle + gov.SendPeriod(cycle)
		}
	}
	w := l.outData[o]
	if w == nil {
		return fmt.Errorf("router %d: output port %d has no wire", l.node, o)
	}
	return w.Send(f)
}
