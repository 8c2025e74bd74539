package router

import (
	"fmt"
	"math/bits"

	"orion/internal/fault"
	"orion/internal/flit"
	"orion/internal/sim"
)

// Router is the interface the network builder uses to wire any router
// microarchitecture into the fabric.
type Router interface {
	// Gated = Module + Quiescent: every router kind must advertise
	// quiescence so the engine's active-set scheduler can skip it (see
	// sim/gate.go).
	sim.Gated
	// AttachInput connects an incoming data wire and the credit wire on
	// which this router returns credits upstream.
	AttachInput(port int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit]) error
	// AttachOutput connects an outgoing data wire and the credit wire on
	// which the downstream node returns credits. downstreamCredits is
	// the downstream buffer depth per VC; infinite marks ejection ports,
	// which the paper assumes drain immediately.
	AttachOutput(port int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit], downstreamCredits int, infinite bool) error
	// SetGovernor throttles an output port's bandwidth (nil for none).
	SetGovernor(port int, gov OutputGovernor) error
	// SetFaults attaches this node's fault-injection view (nil for a
	// fault-free router) and the handler invoked for each flit a LinkDrop
	// fault discards, so the network can keep conservation accounting.
	SetFaults(nf *fault.NodeFaults, onDrop DropHandler)
	// EncodeState emits the router's mutable architectural state —
	// per-VC state machines, occupancy, credits, arbitration pointers,
	// pipeline registers — as fixed-width words via put, and every
	// buffered flit via emit, in a fixed deterministic order. Snapshots
	// compare these streams to detect divergence; EncodeState must not
	// mutate the router.
	EncodeState(put func(uint64), emit func(*flit.Flit))
}

// DropHandler observes flits discarded by fault injection, in drop order
// (head first, tail last — drops are packet-granular).
type DropHandler func(f *flit.Flit, cycle int64)

// OutputGovernor throttles an output link's bandwidth, e.g. a dynamic
// voltage scaling controller whose lower operating points send fewer flits
// per cycle.
type OutputGovernor interface {
	// SendPeriod returns the minimum cycles between flit sends in force
	// at the given cycle.
	SendPeriod(cycle int64) int64
	// OnSend records one flit traversal.
	OnSend(cycle int64)
}

type vcState int

const (
	vcIdle   vcState = iota // no packet owns the VC
	vcWaitVA                // head at front, awaiting VC allocation
	vcActive                // output VC held; flits may arbitrate for the switch
)

type inputVC struct {
	q         fifo[*flit.Flit]
	state     vcState
	outPort   int
	outVC     int
	pendingST bool
}

type outputVC struct {
	free      bool
	credits   int
	infinite  bool
	ownerPort int
	ownerVC   int
	// dropping marks a packet being swallowed by a LinkDrop fault: the
	// head met an active drop window, so every flit through this output
	// VC is discarded (with credit and ring undo) until the tail.
	dropping bool
}

type grant struct {
	inPort, inVC, outPort, outVC int
}

// XBRouter is the input-buffered crossbar router, covering both wormhole
// (VCs = 1, 2-stage pipeline) and virtual-channel (3-stage pipeline)
// configurations.
type XBRouter struct {
	linkSide

	in  [][]inputVC
	out [][]outputVC
	// held[p] has bit v set while input VC (p, v) buffers a flit, so the
	// allocation stages visit only occupied VCs.
	held []uint64

	stExec []grant
	// cand is the per-stage scratch for the winning VC per input port,
	// and outReq for each output port's request vector, reused across
	// cycles so allocation stages never allocate.
	cand   []int
	outReq []uint64

	saIn, saOut []picker
	vaIn, vaOut []picker

	// Ring occupancy accounting for bubble flow control (torus,
	// virtual-channel routers). inRings[p][v] is the ring slot of the
	// input VC buffer (released per flit popped); outRings[p][v] is the
	// downstream ring slot an output channel VC feeds (committed per
	// packet at VC allocation).
	inRings  [][]*ringRef
	outRings [][]*ringRef

	// Deferred rings (virtual-channel routers under bubble flow
	// control): switch traversal stages its ring occupancy updates in
	// ringOps instead of applying them, and the allocation stages that
	// read shared ring state move to TickOrdered. See TickOrdered.
	deferRings bool
	ringOps    []ringOp
}

var _ Router = (*XBRouter)(nil)

// NewXB returns a wormhole or virtual-channel router for the given node.
func NewXB(node int, cfg Config, bus *sim.Bus) (*XBRouter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind != Wormhole && cfg.Kind != VirtualChannel {
		return nil, fmt.Errorf("router: NewXB cannot build a %s router", cfg.Kind)
	}
	if bus == nil {
		return nil, fmt.Errorf("router: event bus is required")
	}
	r := &XBRouter{
		linkSide: newLinkSide(fmt.Sprintf("router%d(%s)", node, cfg.Kind), node, cfg, bus),
		in:       make([][]inputVC, cfg.Ports),
		out:      make([][]outputVC, cfg.Ports),
		held:     make([]uint64, cfg.Ports),
		cand:     make([]int, cfg.Ports),
		outReq:   make([]uint64, cfg.Ports),
		saIn:     make([]picker, cfg.Ports),
		saOut:    make([]picker, cfg.Ports),
		vaIn:     make([]picker, cfg.Ports),
		vaOut:    make([]picker, cfg.Ports),
	}
	if cfg.Kind == VirtualChannel && cfg.Bubble {
		r.deferRings = true
		r.ringOps = make([]ringOp, 0, 2*cfg.Ports)
	}
	r.inRings = make([][]*ringRef, cfg.Ports)
	r.outRings = make([][]*ringRef, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		r.in[p] = make([]inputVC, cfg.VCs)
		r.out[p] = make([]outputVC, cfg.VCs)
		for v := range r.out[p] {
			r.out[p][v].free = true
		}
		r.saIn[p] = picker{n: cfg.VCs}
		r.vaIn[p] = picker{n: cfg.VCs}
		r.saOut[p] = picker{n: cfg.Ports - 1}
		r.vaOut[p] = picker{n: cfg.Ports - 1}
		r.inRings[p] = make([]*ringRef, cfg.VCs)
		r.outRings[p] = make([]*ringRef, cfg.VCs)
	}
	return r, nil
}

// SetInputRing registers the input VC buffer (port, vc) as member idx of a
// ring, for bubble flow control occupancy accounting.
func (r *XBRouter) SetInputRing(port, vc int, ring *Ring, idx int) error {
	if port < 0 || port >= r.cfg.Ports || vc < 0 || vc >= r.cfg.VCs {
		return fmt.Errorf("router: input ring (%d,%d) out of range", port, vc)
	}
	r.inRings[port][vc] = &ringRef{ring: ring, idx: idx}
	return nil
}

// SetOutputRing registers the ring and downstream member slot that output
// channel (port, vc) feeds, for bubble admission checks and packet
// commitment.
func (r *XBRouter) SetOutputRing(port, vc int, ring *Ring, downstreamIdx int) error {
	if port < 0 || port >= r.cfg.Ports || vc < 0 || vc >= r.cfg.VCs {
		return fmt.Errorf("router: output ring (%d,%d) out of range", port, vc)
	}
	r.outRings[port][vc] = &ringRef{ring: ring, idx: downstreamIdx}
	return nil
}

// AttachOutput implements Router.
func (r *XBRouter) AttachOutput(port int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit], downstreamCredits int, infinite bool) error {
	if err := r.attachOutput(port, data, credit); err != nil {
		return err
	}
	for v := range r.out[port] {
		r.out[port][v].credits = downstreamCredits
		r.out[port][v].infinite = infinite
	}
	return nil
}

// BufferedFlits returns the number of flits currently buffered, used by
// drain checks and tests.
func (r *XBRouter) BufferedFlits() int {
	n := 0
	for p := range r.in {
		for v := range r.in[p] {
			n += r.in[p][v].q.len()
		}
	}
	return n
}

// Quiescent implements sim.Gated: with no buffered flits, no VC in any
// pipeline stage, no pending switch grants and no staged ring updates,
// every stage of Tick (and TickOrdered) is a no-op until a wire delivers
// a flit or credit — arbitration pickers only advance on a non-empty
// request set, so skipped ticks leave them exactly where an always-tick
// run would. A router with a fault view never sleeps: fault windows must
// open, close and count stall cycles on schedule even on idle links.
func (r *XBRouter) Quiescent() bool {
	if r.faults != nil || len(r.stExec) != 0 || len(r.ringOps) != 0 {
		return false
	}
	for p := range r.in {
		if r.held[p] != 0 {
			return false
		}
		for v := range r.in[p] {
			ivc := &r.in[p][v]
			if ivc.state != vcIdle || ivc.pendingST {
				return false
			}
		}
		for v := range r.out[p] {
			ovc := &r.out[p][v]
			if !ovc.free || ovc.dropping {
				return false
			}
		}
	}
	return true
}

// Tick implements sim.Module. Stage order within a tick keeps the paper's
// pipeline depths: a head flit arriving in cycle t is written and
// VC-allocated at t, switch-allocated at t+1 and traverses at t+2 (3
// stages); a wormhole flit is switch-allocated at t and traverses at t+1
// (2 stages).
func (r *XBRouter) Tick(cycle int64) error {
	if err := r.receive(cycle); err != nil {
		return err
	}
	if err := r.switchTraversal(cycle); err != nil {
		return err
	}
	if r.deferRings {
		// VC allocation reads shared ring occupancy, so it runs in
		// TickOrdered. The speculative pipeline's switch allocation
		// consumes this cycle's VC grants and moves with it; the
		// non-speculative one reads only router-local credits and stays
		// in the tick phase, preserving the per-node stage (and event)
		// order.
		if r.cfg.Speculative {
			return nil
		}
		return r.switchAllocation(cycle)
	}
	if r.cfg.Kind == VirtualChannel && r.cfg.Speculative {
		// Speculative pipeline [15]: VC allocation resolves before
		// switch allocation within the cycle, so a fresh head can win
		// both and traverse next cycle (2 effective stages).
		r.vcAllocation(cycle)
		return r.switchAllocation(cycle)
	}
	if err := r.switchAllocation(cycle); err != nil {
		return err
	}
	if r.cfg.Kind == VirtualChannel {
		r.vcAllocation(cycle)
	}
	return nil
}

// ringOp is a ring occupancy update staged by switch traversal on a
// router that defers its rings, applied at the head of TickOrdered.
type ringOp struct {
	ref   *ringRef
	delta int
}

// DefersRings reports whether the router runs its ring-reading stages in
// TickOrdered (virtual-channel routers under bubble flow control), which
// the engine must then call every cycle after the tick phase.
func (r *XBRouter) DefersRings() bool { return r.deferRings }

// TickOrdered implements sim.OrderedTicker for routers that defer their
// rings (virtual-channel routers under bubble flow control, whose ring
// occupancy is shared between routers mid-cycle): apply the ring updates
// Tick staged, then run the allocation stages that read shared ring
// state. The engine runs TickOrdered on one goroutine, in ascending node
// order, after every router's Tick. Because each router's staged
// releases are applied immediately before its own VC allocation, the
// global order of ring reads and writes is fixed — router i's
// switch-traversal releases, then router i's VC allocation, for i
// ascending — at every worker count. Other routers are never registered
// for the ordered phase.
func (r *XBRouter) TickOrdered(cycle int64) error {
	for i := range r.ringOps {
		op := r.ringOps[i]
		op.ref.ring.Add(op.ref.idx, op.delta)
	}
	r.ringOps = r.ringOps[:0]
	r.vcAllocation(cycle)
	if r.cfg.Speculative {
		return r.switchAllocation(cycle)
	}
	return nil
}

// receive drains incoming credit and data wires.
func (r *XBRouter) receive(cycle int64) error {
	for p := 0; p < r.cfg.Ports; p++ {
		if w := r.outCred[p]; w != nil {
			if c, ok := w.Take(); ok {
				if c.VC < 0 || c.VC >= r.cfg.VCs {
					return fmt.Errorf("credit for unknown VC %d on output %d", c.VC, p)
				}
				r.out[p][c.VC].credits++
			}
		}
		if w := r.inData[p]; w != nil {
			if f, ok := w.Take(); ok {
				if err := r.acceptFlit(cycle, p, f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *XBRouter) acceptFlit(cycle int64, port int, f *flit.Flit) error {
	if f.VC < 0 || f.VC >= r.cfg.VCs {
		return fmt.Errorf("flit %v arrived on unknown VC at port %d", f, port)
	}
	ivc := &r.in[port][f.VC]
	if ivc.q.len() >= r.cfg.BufferDepth {
		return fmt.Errorf("buffer overflow at port %d vc %d: flow control violated by %v", port, f.VC, f)
	}
	ivc.q.push(f)
	r.held[port] |= 1 << uint(f.VC)
	ev := r.bus.Begin(sim.EvBufferWrite, cycle, r.node)
	ev.Port, ev.VC, ev.Data = port, f.VC, f.Payload
	r.bus.Publish()
	return r.refresh(port, f.VC)
}

// refresh recomputes an input VC's state from its front flit.
func (r *XBRouter) refresh(port, vc int) error {
	ivc := &r.in[port][vc]
	f, ok := ivc.q.front()
	if !ok || ivc.state != vcIdle {
		return nil
	}
	if !f.Kind.IsHead() {
		return fmt.Errorf("port %d vc %d: %v at queue front of idle VC (packet interleaving)", port, vc, f)
	}
	outPort, err := f.OutputPort()
	if err != nil {
		return err
	}
	if outPort < 0 || outPort >= r.cfg.Ports {
		return fmt.Errorf("flit %v routes to invalid port %d", f, outPort)
	}
	ivc.outPort = outPort
	if r.cfg.Kind == VirtualChannel {
		ivc.state = vcWaitVA
	}
	// Wormhole: stays vcIdle; switch allocation acquires the output
	// port directly (2-stage pipeline).
	return nil
}

// switchTraversal executes last cycle's switch grants: buffer read,
// crossbar traversal, link traversal, credit return.
func (r *XBRouter) switchTraversal(cycle int64) error {
	// Switch allocation runs after traversal within a tick, so the grant
	// list can be walked in place and truncated for reuse — the backing
	// array is recycled instead of reallocated every cycle.
	grants := r.stExec
	r.stExec = r.stExec[:0]
	for _, g := range grants {
		ivc := &r.in[g.inPort][g.inVC]
		f, ok := ivc.q.pop()
		if !ok {
			return fmt.Errorf("ST grant for empty queue %d/%d", g.inPort, g.inVC)
		}
		if ivc.q.len() == 0 {
			r.held[g.inPort] &^= 1 << uint(g.inVC)
		}
		ivc.pendingST = false
		// Ring slots exist only on routers that defer their rings, so
		// releases are staged for TickOrdered.
		if ref := r.inRings[g.inPort][g.inVC]; ref != nil {
			r.ringOps = append(r.ringOps, ringOp{ref, -1})
		}
		ev := r.bus.Begin(sim.EvBufferRead, cycle, r.node)
		ev.Port, ev.VC = g.inPort, g.inVC
		r.bus.Publish()
		ev = r.bus.Begin(sim.EvCrossbarTraversal, cycle, r.node)
		ev.Port, ev.OutPort, ev.Data = g.inPort, g.outPort, f.Payload
		r.bus.Publish()

		// Return the freed buffer slot upstream.
		if err := r.returnCredit(g.inPort, g.inVC); err != nil {
			return err
		}

		f.VC = g.outVC
		ovc := &r.out[g.outPort][g.outVC]
		if r.dropStarts(g.outPort, f, cycle) {
			ovc.dropping = true
		}
		if ovc.dropping {
			// The faulted link swallows the flit: undo the credit the
			// switch allocator spent (the flit never occupies a
			// downstream slot) and release its committed ring slot, then
			// hand it to the network's drop accounting instead of the
			// wire. A dropped tail closes the packet and frees the
			// channel exactly as a delivered tail does.
			if !ovc.infinite {
				ovc.credits++
			}
			if ref := r.outRings[g.outPort][g.outVC]; ref != nil {
				r.ringOps = append(r.ringOps, ringOp{ref, -1})
			}
			r.drop(f, cycle)
			ovc.dropping = !f.Kind.IsTail()
		} else if err := r.send(g.outPort, f, cycle); err != nil {
			return err
		}

		if f.Kind.IsTail() {
			ovc.free = true
			ivc.state = vcIdle
			if err := r.refresh(g.inPort, g.inVC); err != nil {
				return err
			}
		}
	}
	return nil
}

// saEligible reports whether an input VC can request the switch.
func (r *XBRouter) saEligible(port, vc int) bool {
	ivc := &r.in[port][vc]
	if ivc.pendingST || ivc.q.len() == 0 {
		return false
	}
	switch ivc.state {
	case vcActive:
		ovc := &r.out[ivc.outPort][ivc.outVC]
		return ovc.infinite || ovc.credits > 0
	case vcIdle:
		// Wormhole only: a head at the front acquires a free output
		// port during switch allocation.
		if r.cfg.Kind != Wormhole {
			return false
		}
		f, ok := ivc.q.front()
		if !ok || !f.Kind.IsHead() {
			return false
		}
		ovc := &r.out[ivc.outPort][0]
		if !ovc.free {
			return false
		}
		if ovc.infinite {
			return true
		}
		if r.cfg.Bubble {
			return ovc.credits >= r.cfg.bubbleCredits(port, ivc.outPort, f)
		}
		return ovc.credits > 0
	default:
		return false
	}
}

// switchAllocation performs the separable switch allocation and queues
// grants for next cycle's traversal.
func (r *XBRouter) switchAllocation(cycle int64) error {
	// Stage 1: per input port, pick one requesting VC.
	candidate := r.cand // winning VC per input, -1 if none
	for p := 0; p < r.cfg.Ports; p++ {
		candidate[p] = -1
		var req uint64
		for h := r.held[p]; h != 0; h &= h - 1 {
			if v := bits.TrailingZeros64(h); r.saEligible(p, v) {
				req |= 1 << uint(v)
			}
		}
		if req == 0 {
			continue
		}
		if r.faults != nil && r.faults.PortStalled(p, cycle) {
			continue // input port frozen by an active PortStall fault
		}
		if r.cfg.VCs == 1 {
			// A single queue needs no input-stage arbiter (the
			// wormhole router's arbiters are the 4:1 output
			// arbiters of the Section 3.3 walkthrough).
			candidate[p] = 0
			continue
		}
		w := r.saIn[p].pick(req)
		candidate[p] = w
		ev := r.bus.Begin(sim.EvArbitration, cycle, r.node)
		ev.Stage, ev.Port, ev.ReqVector, ev.Winner = sim.StageInput, p, req, w
		r.bus.Publish()
	}

	// Stage 2: per output port, pick one input among the candidates.
	r.requestOutputs()
	for o := 0; o < r.cfg.Ports; o++ {
		req := r.outReq[o]
		if r.outFree[o] > cycle+1 {
			continue // link throttled (e.g. DVS at reduced frequency)
		}
		if req == 0 {
			continue
		}
		// Grants traverse next cycle, so gate on the stall window at the
		// traversal cycle; counted only when traffic actually wanted the
		// link.
		if r.faults != nil && r.faults.LinkStalled(o, cycle+1) {
			continue
		}
		slot := r.saOut[o].pick(req)
		ev := r.bus.Begin(sim.EvArbitration, cycle, r.node)
		ev.Stage, ev.Port, ev.ReqVector, ev.Winner = sim.StageOutput, o, req, slot
		r.bus.Publish()
		p := slotToPort(o, slot)
		v := candidate[p]
		ivc := &r.in[p][v]

		if ivc.state == vcIdle {
			// Wormhole output-port acquisition.
			ovc := &r.out[o][0]
			ovc.free = false
			ovc.ownerPort, ovc.ownerVC = p, v
			ivc.state = vcActive
			ivc.outVC = 0
		}
		ovc := &r.out[o][ivc.outVC]
		if !ovc.infinite {
			if ovc.credits <= 0 {
				return fmt.Errorf("SA granted without credit at output %d vc %d", o, ivc.outVC)
			}
			ovc.credits--
		}
		ivc.pendingST = true
		r.stExec = append(r.stExec, grant{inPort: p, inVC: v, outPort: o, outVC: ivc.outVC})
	}
	return nil
}

// vcAllocation performs the separable virtual-channel allocation for head
// flits (3-stage pipeline, first stage).
func (r *XBRouter) vcAllocation(cycle int64) {
	candidate := r.cand
	for p := 0; p < r.cfg.Ports; p++ {
		candidate[p] = -1
		var req uint64
		for h := r.held[p]; h != 0; h &= h - 1 {
			v := bits.TrailingZeros64(h)
			ivc := &r.in[p][v]
			if ivc.state != vcWaitVA {
				continue
			}
			f, _ := ivc.q.front()
			if r.allocatableVC(ivc.outPort, f, p) < 0 {
				continue
			}
			req |= 1 << uint(v)
		}
		if req == 0 {
			continue
		}
		if r.cfg.VCs == 1 {
			// A single VC needs no input-stage allocation arbiter.
			candidate[p] = 0
			continue
		}
		w := r.vaIn[p].pick(req)
		candidate[p] = w
		ev := r.bus.Begin(sim.EvVCAllocation, cycle, r.node)
		ev.Stage, ev.Port, ev.ReqVector, ev.Winner = sim.StageInput, p, req, w
		r.bus.Publish()
	}

	r.requestOutputs()
	for o := 0; o < r.cfg.Ports; o++ {
		req := r.outReq[o]
		if req == 0 {
			continue
		}
		slot := r.vaOut[o].pick(req)
		ev := r.bus.Begin(sim.EvVCAllocation, cycle, r.node)
		ev.Stage, ev.Port, ev.ReqVector, ev.Winner = sim.StageOutput, o, req, slot
		r.bus.Publish()
		p := slotToPort(o, slot)
		v := candidate[p]
		ivc := &r.in[p][v]
		headFlit, ok := ivc.q.front()
		if !ok {
			continue
		}
		ovcIdx := r.allocatableVC(o, headFlit, p)
		if ovcIdx < 0 {
			continue
		}
		ovc := &r.out[o][ovcIdx]
		ovc.free = false
		ovc.ownerPort, ovc.ownerVC = p, v
		ivc.outVC = ovcIdx
		ivc.state = vcActive
		// Commit the whole packet to the downstream ring buffer now so
		// concurrent admissions elsewhere see the space as taken.
		if ref := r.outRings[o][ovcIdx]; ref != nil {
			ref.ring.Add(ref.idx, packetLength(headFlit))
		}
	}
}

// requestOutputs builds each output port's request vector from the
// stage-1 winners in r.cand, in one pass over the inputs: bit
// reqSlot(o, p) of outReq[o] is set when input p's candidate routes to
// o. An input never requests its own port.
func (r *XBRouter) requestOutputs() {
	clear(r.outReq)
	for p, v := range r.cand {
		if v < 0 {
			continue
		}
		if o := r.in[p][v].outPort; o != p {
			r.outReq[o] |= 1 << uint(reqSlot(o, p))
		}
	}
}

// packetLength returns the flit count of a flit's packet, defaulting to 1.
func packetLength(f *flit.Flit) int {
	if f.Packet != nil && f.Packet.Length > 0 {
		return f.Packet.Length
	}
	return 1
}

// headClass returns the dateline VC class required by a head flit at this
// router, or -1 when unrestricted. Classes apply only in dateline mode;
// bubble flow control leaves VC choice free.
func (r *XBRouter) headClass(f *flit.Flit) int {
	if !r.cfg.Dateline {
		return -1
	}
	if f.Packet == nil || f.Hop < 0 || f.Hop >= len(f.Packet.VCClasses) {
		return -1
	}
	return f.Packet.VCClasses[f.Hop]
}

// allocatableVC returns an output VC at port o that the head flit f
// (arriving through inPort) may be allocated, or -1. In bubble mode the VC
// must have room for the whole packet (virtual cut-through) and, when the
// packet is entering the ring rather than continuing around it, the ring
// must retain a whole-packet bubble after admission.
func (r *XBRouter) allocatableVC(o int, f *flit.Flit, inPort int) int {
	class := r.headClass(f)
	lo, hi := 0, r.cfg.VCs
	if class >= 0 && r.cfg.VCs >= 2 && !r.isEjection(o) {
		half := r.cfg.VCs / 2
		if class == 0 {
			hi = half
		} else {
			lo = half
		}
	}
	need := packetLength(f)
	entering := !r.cfg.sameDim(inPort, o)
	for v := lo; v < hi; v++ {
		ovc := &r.out[o][v]
		if !ovc.free {
			continue
		}
		if ovc.infinite {
			return v
		}
		if !r.cfg.Bubble || r.cfg.Dateline {
			if ovc.credits > 0 {
				return v
			}
			continue
		}
		// Bubble mode: virtual cut-through admission plus ring bubble.
		if ovc.credits < need {
			continue
		}
		if entering {
			if ref := r.outRings[o][v]; ref != nil && ref.ring.UsablePackets(need) < 2 {
				continue
			}
		}
		return v
	}
	return -1
}

// bubbleCredits returns the credit threshold of bubble flow control for a
// head flit moving from inPort to outPort: space for one packet when
// continuing straight through a ring, two when entering the ring.
func (c Config) bubbleCredits(inPort, outPort int, f *flit.Flit) int {
	n := packetLength(f)
	if c.sameDim(inPort, outPort) {
		return n
	}
	return 2 * n
}
