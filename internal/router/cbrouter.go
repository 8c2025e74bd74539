package router

import (
	"fmt"

	"orion/internal/flit"
	"orion/internal/sim"
)

// cbEntry is one flit stored in the central buffer.
type cbEntry struct {
	f          *flit.Flit
	bank       int
	writeCycle int64
}

// cbPacket is one packet's record in an output queue. Flits are read
// strictly in order and a packet is read contiguously (wormhole ordering on
// the outgoing link); the next packet starts only after this one's tail.
type cbPacket struct {
	entries  fifo[cbEntry]
	complete bool
	inPort   int
}

// newPacket returns a packet record with room for length entries, reusing
// a retired record's storage when one is free.
func (r *CBRouter) newPacket(inPort, length int) *cbPacket {
	if n := len(r.pktFree); n > 0 {
		pkt := r.pktFree[n-1]
		r.pktFree[n-1] = nil
		r.pktFree = r.pktFree[:n-1]
		pkt.inPort = inPort
		pkt.complete = false
		pkt.entries.items = pkt.entries.items[:0]
		pkt.entries.head = 0
		if cap(pkt.entries.items) < length {
			pkt.entries.items = make([]cbEntry, 0, length)
		}
		return pkt
	}
	pkt := &cbPacket{inPort: inPort}
	// One entry per flit of the packet: sizing the record up front
	// avoids append growth during the packet's writes.
	pkt.entries.items = make([]cbEntry, 0, length)
	return pkt
}

// recyclePacket returns a retired record to the free list.
func (r *CBRouter) recyclePacket(pkt *cbPacket) {
	r.pktFree = append(r.pktFree, pkt)
}

// CBRouter is the central-buffered router of Section 4.4: a shared
// pipelined memory forwards flits between input and output ports. Its
// throughput is bounded by the central buffer's fabric ports (2 reads + 2
// writes per cycle in the paper's configuration, versus the 5 concurrent
// traversals of a 5×5 crossbar), but packets destined for different
// outputs never block one another at an input ("packets from the same
// input port need not line up behind one another").
type CBRouter struct {
	linkSide

	inQ      []fifo[*flit.Flit]
	curWrite []*cbPacket

	outCredits  []int
	outInfinite []bool

	outQ     []fifo[*cbPacket]
	capacity int
	used     int
	bankNext int

	writePick []picker // one per write port
	readPick  []picker // one per read port

	// dropping is the per-output packet-drop latch: a packet whose head
	// met a drop window is swallowed whole, and output queues read
	// packets contiguously, so one flag per port suffices.
	dropping []bool

	// pktFree recycles packet tracking records (and their entry slices)
	// between packets, so the steady-state tick allocates nothing — the
	// per-packet record was the router's one residual allocation,
	// showing up as ~70 B/op amortised over the packet's flits.
	pktFree []*cbPacket
}

var _ Router = (*CBRouter)(nil)

// NewCB returns a central-buffered router for the given node.
func NewCB(node int, cfg Config, bus *sim.Bus) (*CBRouter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind != CentralBuffered {
		return nil, fmt.Errorf("router: NewCB cannot build a %s router", cfg.Kind)
	}
	if bus == nil {
		return nil, fmt.Errorf("router: event bus is required")
	}
	if cfg.Ports > 64 {
		return nil, fmt.Errorf("router: central-buffered router supports at most 64 ports, got %d", cfg.Ports)
	}
	r := &CBRouter{
		linkSide:    newLinkSide(fmt.Sprintf("router%d(central-buffered)", node), node, cfg, bus),
		inQ:         make([]fifo[*flit.Flit], cfg.Ports),
		curWrite:    make([]*cbPacket, cfg.Ports),
		outCredits:  make([]int, cfg.Ports),
		outInfinite: make([]bool, cfg.Ports),
		outQ:        make([]fifo[*cbPacket], cfg.Ports),
		capacity:    cfg.CBBanks * cfg.CBRows,
		writePick:   make([]picker, cfg.CBWritePorts),
		readPick:    make([]picker, cfg.CBReadPorts),
		dropping:    make([]bool, cfg.Ports),
	}
	for i := range r.writePick {
		r.writePick[i] = picker{n: cfg.Ports}
	}
	for i := range r.readPick {
		r.readPick[i] = picker{n: cfg.Ports}
	}
	return r, nil
}

// AttachOutput implements Router.
func (r *CBRouter) AttachOutput(port int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit], downstreamCredits int, infinite bool) error {
	if err := r.attachOutput(port, data, credit); err != nil {
		return err
	}
	r.outCredits[port] = downstreamCredits
	r.outInfinite[port] = infinite
	return nil
}

// BufferedFlits returns flits held in input buffers plus the central
// buffer.
func (r *CBRouter) BufferedFlits() int {
	n := r.used
	for p := range r.inQ {
		n += r.inQ[p].len()
	}
	return n
}

// Quiescent implements sim.Gated: with empty input buffers, an empty
// central buffer, no open packet records and no drop latch armed, every
// stage of Tick is a no-op until a wire delivers a flit or credit. The
// check is deliberately conservative — a packet whose written entries
// have all been read keeps its record open until the tail arrives, and
// the record (not just buffered flits) holds the router awake. A router
// with a fault view never sleeps.
func (r *CBRouter) Quiescent() bool {
	if r.faults != nil || r.used != 0 {
		return false
	}
	for p := 0; p < r.cfg.Ports; p++ {
		if r.inQ[p].len() != 0 || r.curWrite[p] != nil ||
			r.outQ[p].len() != 0 || r.dropping[p] {
			return false
		}
	}
	return true
}

// Tick implements sim.Module: read allocation (CB → links), write
// allocation (input buffers → CB), then receive. A flit therefore takes
// three stages through the router: input buffer write at cycle t, central
// buffer write at t+1, central buffer read and link at t+2.
func (r *CBRouter) Tick(cycle int64) error {
	if err := r.readStage(cycle); err != nil {
		return err
	}
	if err := r.writeStage(cycle); err != nil {
		return err
	}
	return r.receive(cycle)
}

func (r *CBRouter) receive(cycle int64) error {
	for p := 0; p < r.cfg.Ports; p++ {
		if w := r.outCred[p]; w != nil {
			if _, ok := w.Take(); ok {
				r.outCredits[p]++
			}
		}
		if w := r.inData[p]; w != nil {
			if f, ok := w.Take(); ok {
				if r.inQ[p].len() >= r.cfg.BufferDepth {
					return fmt.Errorf("cb router %d: input %d overflow: flow control violated by %v", r.node, p, f)
				}
				r.inQ[p].push(f)
				ev := r.bus.Begin(sim.EvBufferWrite, cycle, r.node)
				ev.Port, ev.VC, ev.Data = p, 0, f.Payload
				r.bus.Publish()
			}
		}
	}
	return nil
}

// readable reports whether output o could send its next flit this cycle.
func (r *CBRouter) readable(o int, cycle int64) bool {
	if r.outFree[o] > cycle {
		return false // link throttled (e.g. DVS at reduced frequency)
	}
	pkt, ok := r.outQ[o].front()
	if !ok {
		return false
	}
	e, ok := pkt.entries.front()
	if !ok || e.writeCycle >= cycle {
		return false
	}
	if r.outInfinite[o] {
		return true
	}
	need := 1
	if e.f.Kind.IsHead() && r.cfg.Bubble {
		need = r.cfg.bubbleCredits(pkt.inPort, o, e.f)
	}
	return r.outCredits[o] >= need
}

// readStage allocates the central buffer's read ports among output ports
// and forwards the granted flits onto their links.
func (r *CBRouter) readStage(cycle int64) error {
	var req uint64
	for o := 0; o < r.cfg.Ports; o++ {
		if !r.readable(o, cycle) {
			continue
		}
		// Stall gate after the readability check, so stalled link-cycles
		// are counted only when traffic actually wanted the link.
		if r.faults != nil && r.faults.LinkStalled(o, cycle) {
			continue
		}
		req |= 1 << uint(o)
	}
	for rp := 0; rp < r.cfg.CBReadPorts && req != 0; rp++ {
		o := r.readPick[rp].pick(req)
		ev := r.bus.Begin(sim.EvArbitration, cycle, r.node)
		ev.Stage, ev.Port, ev.ReqVector, ev.Winner = sim.StageOutput, rp, req, o
		r.bus.Publish()
		if o < 0 {
			break
		}
		req &^= 1 << uint(o)

		pkt, _ := r.outQ[o].front()
		e, _ := pkt.entries.pop()
		r.used--
		ev = r.bus.Begin(sim.EvCentralBufRead, cycle, r.node)
		ev.Port, ev.OutPort, ev.Data = e.bank, rp, e.f.Payload
		r.bus.Publish()
		if !r.outInfinite[o] {
			r.outCredits[o]--
		}

		f := e.f
		f.VC = 0
		if r.dropStarts(o, f, cycle) {
			r.dropping[o] = true
		}
		if r.dropping[o] {
			// The faulted link swallows the flit: return the spent
			// downstream credit and hand the flit to drop accounting
			// instead of the wire. Tails retire the packet record as a
			// delivered tail would.
			if !r.outInfinite[o] {
				r.outCredits[o]++
			}
			r.drop(f, cycle)
			r.dropping[o] = !f.Kind.IsTail()
		} else if err := r.send(o, f, cycle); err != nil {
			return err
		}
		if f.Kind.IsTail() {
			if !pkt.complete || pkt.entries.len() != 0 {
				return fmt.Errorf("cb router %d: tail read from incomplete packet record", r.node)
			}
			r.outQ[o].pop()
			r.recyclePacket(pkt)
		}
	}
	return nil
}

// writeStage allocates the central buffer's write ports among input ports
// and moves the granted flits from input buffers into the central buffer.
func (r *CBRouter) writeStage(cycle int64) error {
	var req uint64
	for p := 0; p < r.cfg.Ports; p++ {
		if !r.writable(p) {
			continue
		}
		// PortStall freezes the input port: its buffered flits stop
		// bidding for central-buffer write ports during the window.
		if r.faults != nil && r.faults.PortStalled(p, cycle) {
			continue
		}
		req |= 1 << uint(p)
	}
	for wp := 0; wp < r.cfg.CBWritePorts && req != 0; wp++ {
		p := r.writePick[wp].pick(req)
		ev := r.bus.Begin(sim.EvArbitration, cycle, r.node)
		ev.Stage, ev.Port, ev.ReqVector, ev.Winner = sim.StageInput, wp, req, p
		r.bus.Publish()
		if p < 0 {
			break
		}
		req &^= 1 << uint(p)

		f, _ := r.inQ[p].pop()
		ev = r.bus.Begin(sim.EvBufferRead, cycle, r.node)
		ev.Port, ev.VC = p, 0
		r.bus.Publish()
		if err := r.returnCredit(p, 0); err != nil {
			return err
		}

		outPort, err := f.OutputPort()
		if err != nil {
			return err
		}
		if outPort < 0 || outPort >= r.cfg.Ports {
			return fmt.Errorf("cb router %d: flit %v routes to invalid port %d", r.node, f, outPort)
		}

		var pkt *cbPacket
		if f.Kind.IsHead() {
			pkt = r.newPacket(p, packetLength(f))
			r.curWrite[p] = pkt
			r.outQ[outPort].push(pkt)
		} else {
			pkt = r.curWrite[p]
			if pkt == nil {
				return fmt.Errorf("cb router %d: %v has no open packet record", r.node, f)
			}
		}
		bank := r.bankNext
		r.bankNext = (r.bankNext + 1) % r.cfg.CBBanks
		pkt.entries.push(cbEntry{f: f, bank: bank, writeCycle: cycle})
		r.used++
		ev = r.bus.Begin(sim.EvCentralBufWrite, cycle, r.node)
		ev.Port, ev.OutPort, ev.Data = wp, bank, f.Payload
		r.bus.Publish()
		if f.Kind.IsTail() {
			pkt.complete = true
			r.curWrite[p] = nil
		}
	}
	return nil
}

// writable reports whether input port p can move its front flit into the
// central buffer this cycle: heads require space for the whole packet
// (virtual cut-through admission), other flits one slot.
func (r *CBRouter) writable(p int) bool {
	f, ok := r.inQ[p].front()
	if !ok {
		return false
	}
	if f.Kind.IsHead() {
		need := 1
		if f.Packet != nil && f.Packet.Length > 0 {
			need = f.Packet.Length
		}
		return r.capacity-r.used >= need
	}
	return r.used < r.capacity
}
