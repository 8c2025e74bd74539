// Package sim is the simulation kernel on which the network is built.
//
// It plays the role of the Liberty Simulation Environment (LSE) in the
// original Orion: hardware blocks are modelled as modules that communicate
// through ports (typed wires with one-cycle latency), driven by a
// cycle-stepped engine, and execution statistics are collected through an
// event subsystem. "Power models in the power simulation library are hooked
// to these events so when an event occurs during the execution, it triggers
// the specific power model, which calculates and accumulates the energy
// consumed" (paper Section 2.1); the hook point here is Bus.Subscribe.
//
// There is one cycle kernel for every worker count: the engine shards
// modules across workers, and worker 0 is the goroutine calling Step, so
// one worker is a single shard ticked by the caller with no goroutine and
// no barrier (see Engine).
package sim

import "fmt"

// EventType identifies the microarchitectural action an Event reports.
// Each corresponds to an energy-consuming operation in the paper's
// walkthrough (Section 3.3) and power models (Section 3, Appendix).
type EventType int

const (
	// EvBufferWrite: a flit was written into an input buffer (E_wrt).
	EvBufferWrite EventType = iota
	// EvBufferRead: a flit was read from an input buffer (E_read).
	EvBufferRead
	// EvArbitration: an arbiter performed an arbitration (E_arb).
	EvArbitration
	// EvVCAllocation: a virtual-channel allocator performed an
	// allocation; modelled with arbiter energy (Section 2.2: wormhole
	// and VC networks share modules with different configuration).
	EvVCAllocation
	// EvCrossbarTraversal: a flit traversed the crossbar (E_xb).
	EvCrossbarTraversal
	// EvLinkTraversal: a flit traversed an inter-router link (E_link).
	EvLinkTraversal
	// EvCentralBufWrite: a flit was written into a central buffer.
	EvCentralBufWrite
	// EvCentralBufRead: a flit was read from a central buffer.
	EvCentralBufRead

	numEventTypes = iota
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EvBufferWrite:
		return "buffer-write"
	case EvBufferRead:
		return "buffer-read"
	case EvArbitration:
		return "arbitration"
	case EvVCAllocation:
		return "vc-allocation"
	case EvCrossbarTraversal:
		return "crossbar-traversal"
	case EvLinkTraversal:
		return "link-traversal"
	case EvCentralBufWrite:
		return "central-buffer-write"
	case EvCentralBufRead:
		return "central-buffer-read"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// NumEventTypes is the count of defined event types, for sizing tables.
const NumEventTypes = int(numEventTypes)

// Event reports one energy-consuming action. Power models subscribed to the
// Bus translate events into joules using the capacitance equations of
// Section 3; data-dependent models use Data (and PrevData where the emitter
// knows the overwritten value) to count real bit switching.
type Event struct {
	// Type is the action class.
	Type EventType
	// Cycle is the simulation cycle the action occurred in.
	Cycle int64
	// Node is the network node the acting component belongs to
	// (-1 when not applicable).
	Node int
	// Port is the component instance within the node: the input port of
	// a buffer, the arbiter's port index, the input line of a crossbar,
	// the output direction of a link, or the write port / bank of a
	// central buffer access.
	Port int
	// OutPort is the second coordinate where an action spans two ports:
	// the crossbar output line, or the read port / bank of a central
	// buffer access.
	OutPort int
	// VC is the virtual channel involved, or -1.
	VC int
	// Stage distinguishes the two stages of a separable allocator for
	// arbitration events (StageInput or StageOutput).
	Stage int
	// Data is the value involved in the action (the flit payload written,
	// read, or traversing). May be nil for purely control actions.
	Data []uint64
	// ReqVector is the arbitration request bitmask (bit i set when
	// requester i requests), used by arbiter models to derive
	// request-line switching.
	ReqVector uint64
	// Winner is the granted requester of an arbitration, or -1.
	Winner int
}

// Separable-allocator stages for Event.Stage. Virtual-channel and switch
// allocators arbitrate first among the VCs of each input port, then among
// input ports at each output port.
const (
	// StageInput is the per-input-port arbitration stage.
	StageInput = 0
	// StageOutput is the per-output-port arbitration stage; its grant
	// also drives the crossbar control lines (Appendix: E_xb_ctr is
	// accounted with E_arb).
	StageOutput = 1
)

// Listener receives published events. The event and its slices must not be
// retained beyond the call: the bus reuses one scratch Event across all
// publishes, so a retained pointer is overwritten by the next event.
type Listener func(*Event)

// Bus is the event subsystem. Modules publish events; power models and
// statistics collectors subscribe. The zero value is ready to use.
//
// Publishing is the innermost loop of a simulation — every buffer access,
// arbitration, crossbar and link traversal passes through it — so it is
// built to be allocation-free and copy-free: the publisher fills a single
// bus-owned scratch slot in place (Begin), and Publish delivers a pointer
// to that slot. An Event is over a hundred bytes, so building one at the
// call site and passing it by value would copy it twice per event.
// Listeners may subscribe to all events (Subscribe) or to a single event
// type (SubscribeType); typed listeners are not invoked for other types, so
// e.g. a link power model never pays for arbitration events.
type Bus struct {
	all    []Listener
	byType [NumEventTypes][]Listener
	// scratch is the reusable delivery slot; see Begin and Publish.
	scratch Event
	// Count tallies published events by type; always maintained, even
	// with no listeners, so tests can assert module behaviour cheaply.
	Count [NumEventTypes]int64
}

// Subscribe registers a listener for all subsequent events.
func (b *Bus) Subscribe(l Listener) {
	if l == nil {
		return
	}
	b.all = append(b.all, l)
}

// SubscribeType registers a listener invoked only for events of type t,
// after any all-event listeners. Out-of-range types are ignored.
func (b *Bus) SubscribeType(t EventType, l Listener) {
	if l == nil || t < 0 || int(t) >= NumEventTypes {
		return
	}
	b.byType[t] = append(b.byType[t], l)
}

// Begin starts an event: it clears the bus's scratch slot, so no field of
// the previous event survives, stamps it with the type, cycle and node,
// marks VC and Winner as not applicable (-1), and returns it for the
// publisher to fill in the remaining fields before calling Publish.
func (b *Bus) Begin(t EventType, cycle int64, node int) *Event {
	e := &b.scratch
	// Zero, then stamp: assigning a composite literal with non-zero
	// fields would build it on the stack and copy it over the slot.
	*e = Event{}
	e.Type, e.Cycle, e.Node, e.VC, e.Winner = t, cycle, node, -1, -1
	return e
}

// Publish delivers the event filled in since the last Begin to every
// all-event listener in subscription order, then to the listeners
// subscribed to the event's type.
func (b *Bus) Publish() {
	e := &b.scratch
	t := int(e.Type)
	if t >= 0 && t < NumEventTypes {
		b.Count[t]++
	}
	for _, l := range b.all {
		l(e)
	}
	if t >= 0 && t < NumEventTypes {
		for _, l := range b.byType[t] {
			l(e)
		}
	}
}

// Snapshot returns a copy of the per-type event counters, for explicit
// before/after deltas (Count is an array field, so reading it already
// copies; Snapshot states the intent).
func (b *Bus) Snapshot() [NumEventTypes]int64 {
	return b.Count
}

// Total returns the total number of events published.
func (b *Bus) Total() int64 {
	var n int64
	for _, c := range b.Count {
		n += c
	}
	return n
}
