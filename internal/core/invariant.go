package core

import (
	"fmt"

	"orion/internal/flit"
	"orion/internal/router"
	"orion/internal/sim"
)

// InvariantError is the structured diagnostic of a runtime invariant
// violation: which rule broke, where, and when. It wraps ErrInvariant so
// callers classify it with errors.Is and recover the fields with errors.As.
type InvariantError struct {
	// Invariant names the violated rule (see the catalog in DESIGN.md):
	// "buffer-occupancy", "flit-conservation", "monotonic-delivery",
	// "hop-limit", "over-delivery", "unknown-packet".
	Invariant string
	// Cycle is the simulation cycle of the violation.
	Cycle int64
	// Node is the network node involved (-1 when network-wide).
	Node int
	// Port and VC locate the component instance (-1 when not applicable).
	Port, VC int
	// Component names the microarchitectural component ("input buffer",
	// "central buffer", "sink", "network").
	Component string
	// Detail is the human-readable specifics (observed vs. bound).
	Detail string
}

// Error implements error.
func (e *InvariantError) Error() string {
	loc := fmt.Sprintf("node %d", e.Node)
	if e.Node < 0 {
		loc = "network-wide"
	}
	if e.Port >= 0 {
		loc += fmt.Sprintf(" port %d", e.Port)
		if e.VC >= 0 {
			loc += fmt.Sprintf(" vc %d", e.VC)
		}
	}
	return fmt.Sprintf("core: invariant %s violated at cycle %d, %s (%s): %s",
		e.Invariant, e.Cycle, loc, e.Component, e.Detail)
}

// Unwrap makes errors.Is(err, ErrInvariant) hold.
func (e *InvariantError) Unwrap() error { return ErrInvariant }

// pktLedger tracks one packet's delivery from injection to retirement.
type pktLedger struct {
	length    int
	delivered int
	dropped   int
}

// Checker is the runtime invariant checker: an event-bus subscriber plus
// network hooks that together verify the simulation's conservation laws
// while it runs, failing fast with a structured InvariantError instead of
// letting a bug corrupt results.
//
// Catalog (see DESIGN.md "Runtime invariants"):
//
//   - buffer-occupancy: every input-buffer and central-buffer occupancy,
//     reconstructed from write/read events, stays within [0, capacity].
//     This is the observable dual of credit-bound correctness: a credit
//     leak or double-spend surfaces as an occupancy excursion here or as a
//     router overflow error.
//   - unknown-packet / over-delivery / monotonic-delivery: every ejected
//     flit belongs to an injected packet, no packet delivers more flits
//     than its length, and flits of a packet arrive in Seq order.
//   - hop-limit: a flit ejects having traversed exactly its precomputed
//     route (Hop equals route length − 1 at the destination).
//   - flit-conservation: at end of run, injected = ejected + dropped +
//     source-queued + buffered + a bounded number in flight on wires.
//
// The checker only observes — it never mutates events or network state —
// so enabling it cannot change simulation results, only abort bad runs.
type Checker struct {
	nodes    int
	ports    int
	vcs      int
	bufDepth int
	cbCap    int

	// occ is input-buffer occupancy indexed [node][port*vcs+vc]; cbOcc is
	// central-buffer occupancy per node.
	occ   [][]int
	cbOcc []int

	packets  map[int64]*pktLedger
	injected int64 // flits entering source queues
	ejected  int64 // flits consumed by sinks
	dropped  int64 // flits discarded by fault injection

	// errs holds the first violation per error slot: one slot per shard
	// bus (written only by that shard's worker) plus a final slot for the
	// network hooks (OnInject/OnEject/OnDrop/CheckConservation), which
	// run on the goroutine stepping the engine. Err merges the slots
	// deterministically, so the reported violation is independent of
	// worker scheduling.
	errs []*InvariantError
}

// NewChecker builds a checker for a network with the given shape and
// subscribes it to every shard bus. Node-indexed occupancy state is
// disjoint across shards (a node's events are published only on its own
// shard's bus), so the checker needs no locking — only the per-slot error
// discipline above. cbCap is zero for crossbar routers.
func NewChecker(buses []*sim.Bus, nodes int, rcfg router.Config) *Checker {
	c := &Checker{
		nodes:    nodes,
		ports:    rcfg.Ports,
		vcs:      rcfg.VCs,
		bufDepth: rcfg.BufferDepth,
		occ:      make([][]int, nodes),
		cbOcc:    make([]int, nodes),
		packets:  make(map[int64]*pktLedger),
		errs:     make([]*InvariantError, len(buses)+1),
	}
	if rcfg.Kind == router.CentralBuffered {
		c.cbCap = rcfg.CBBanks * rcfg.CBRows
	}
	for n := range c.occ {
		c.occ[n] = make([]int, rcfg.Ports*rcfg.VCs)
	}
	for slot, bus := range buses {
		slot := slot
		bus.Subscribe(func(e *sim.Event) { c.onEvent(slot, e) })
	}
	return c
}

// hookSlot is the error slot of the network hooks.
func (c *Checker) hookSlot() int { return len(c.errs) - 1 }

// Err returns the run's first violation, or nil. With several slots
// failed, "first" is chosen deterministically to match the one-worker
// event order: lowest cycle wins; within a cycle, event-slot
// errors beat hook-slot errors (all bus events of a cycle precede the
// sink-phase hooks), and among event slots the lowest node wins (modules
// tick in ascending node order, and each shard observes its own nodes'
// events in order).
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	var best *InvariantError
	bestHook := false
	for slot, e := range c.errs {
		if e == nil {
			continue
		}
		hook := slot == c.hookSlot()
		if best == nil || e.Cycle < best.Cycle ||
			(e.Cycle == best.Cycle && bestHook && !hook) ||
			(e.Cycle == best.Cycle && hook == bestHook && e.Node >= 0 && best.Node >= 0 && e.Node < best.Node) {
			best, bestHook = e, hook
		}
	}
	if best == nil {
		return nil
	}
	return best
}

// fail records a slot's first violation; later ones are dropped (the
// first is the root cause, everything after is fallout).
func (c *Checker) fail(slot int, e *InvariantError) {
	if c.errs[slot] == nil {
		c.errs[slot] = e
	}
}

// onEvent reconstructs buffer occupancies from the event stream of one
// shard bus.
func (c *Checker) onEvent(slot int, e *sim.Event) {
	if c.errs[slot] != nil {
		return
	}
	switch e.Type {
	case sim.EvBufferWrite, sim.EvBufferRead:
		if e.Node < 0 || e.Node >= c.nodes || e.Port < 0 || e.Port >= c.ports ||
			e.VC < 0 || e.VC >= c.vcs {
			c.fail(slot, &InvariantError{
				Invariant: "buffer-occupancy", Cycle: e.Cycle,
				Node: e.Node, Port: e.Port, VC: e.VC, Component: "input buffer",
				Detail: fmt.Sprintf("%s event outside network shape (%d nodes, %d ports, %d VCs)",
					e.Type, c.nodes, c.ports, c.vcs),
			})
			return
		}
		occ := &c.occ[e.Node][e.Port*c.vcs+e.VC]
		if e.Type == sim.EvBufferWrite {
			*occ++
			if *occ > c.bufDepth {
				c.fail(slot, &InvariantError{
					Invariant: "buffer-occupancy", Cycle: e.Cycle,
					Node: e.Node, Port: e.Port, VC: e.VC, Component: "input buffer",
					Detail: fmt.Sprintf("occupancy %d exceeds depth %d (flow-control credit double-spend)", *occ, c.bufDepth),
				})
			}
		} else {
			*occ--
			if *occ < 0 {
				c.fail(slot, &InvariantError{
					Invariant: "buffer-occupancy", Cycle: e.Cycle,
					Node: e.Node, Port: e.Port, VC: e.VC, Component: "input buffer",
					Detail: "read from empty buffer",
				})
			}
		}
	case sim.EvCentralBufWrite, sim.EvCentralBufRead:
		if e.Node < 0 || e.Node >= c.nodes {
			return
		}
		occ := &c.cbOcc[e.Node]
		if e.Type == sim.EvCentralBufWrite {
			*occ++
			if c.cbCap > 0 && *occ > c.cbCap {
				c.fail(slot, &InvariantError{
					Invariant: "buffer-occupancy", Cycle: e.Cycle,
					Node: e.Node, Port: -1, VC: -1, Component: "central buffer",
					Detail: fmt.Sprintf("occupancy %d exceeds capacity %d", *occ, c.cbCap),
				})
			}
		} else {
			*occ--
			if *occ < 0 {
				c.fail(slot, &InvariantError{
					Invariant: "buffer-occupancy", Cycle: e.Cycle,
					Node: e.Node, Port: -1, VC: -1, Component: "central buffer",
					Detail: "read from empty central buffer",
				})
			}
		}
	}
}

// OnInject opens a packet's delivery ledger as its flits enter the source
// queue.
func (c *Checker) OnInject(p *flit.Packet) {
	if c == nil || p == nil {
		return
	}
	c.injected += int64(p.Length)
	c.packets[p.ID] = &pktLedger{length: p.Length}
}

// OnEject verifies one ejected flit against its packet's ledger.
func (c *Checker) OnEject(f *flit.Flit, cycle int64) {
	if c == nil || c.errs[c.hookSlot()] != nil {
		return
	}
	c.ejected++
	node := -1
	if f.Packet != nil {
		node = f.Packet.Dst
	}
	if f.Packet == nil {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "unknown-packet", Cycle: cycle, Node: node,
			Port: -1, VC: -1, Component: "sink",
			Detail: fmt.Sprintf("ejected flit %v has no packet record", f),
		})
		return
	}
	led, ok := c.packets[f.Packet.ID]
	if !ok {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "unknown-packet", Cycle: cycle, Node: node,
			Port: -1, VC: -1, Component: "sink",
			Detail: fmt.Sprintf("packet %d was never injected", f.Packet.ID),
		})
		return
	}
	if led.delivered >= led.length {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "over-delivery", Cycle: cycle, Node: node,
			Port: -1, VC: -1, Component: "sink",
			Detail: fmt.Sprintf("packet %d delivered %d flits of length %d and then %v arrived again (duplicated flit)",
				f.Packet.ID, led.delivered, led.length, f),
		})
		return
	}
	if f.Seq != led.delivered {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "monotonic-delivery", Cycle: cycle, Node: node,
			Port: -1, VC: -1, Component: "sink",
			Detail: fmt.Sprintf("packet %d flit seq %d arrived out of order (expected seq %d)",
				f.Packet.ID, f.Seq, led.delivered),
		})
		return
	}
	if f.Hop != len(f.Packet.Route)-1 {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "hop-limit", Cycle: cycle, Node: node,
			Port: -1, VC: -1, Component: "sink",
			Detail: fmt.Sprintf("flit %v ejected after %d hops, route has %d",
				f, f.Hop, len(f.Packet.Route)-1),
		})
		return
	}
	led.delivered++
	if led.delivered+led.dropped == led.length {
		delete(c.packets, f.Packet.ID) // fully retired
	}
}

// OnDrop accounts a flit discarded by fault injection.
func (c *Checker) OnDrop(f *flit.Flit, cycle int64) {
	if c == nil || c.errs[c.hookSlot()] != nil {
		return
	}
	c.dropped++
	if f.Packet == nil {
		return
	}
	led, ok := c.packets[f.Packet.ID]
	if !ok {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "unknown-packet", Cycle: cycle, Node: f.Packet.Src,
			Port: -1, VC: -1, Component: "network",
			Detail: fmt.Sprintf("dropped packet %d was never injected", f.Packet.ID),
		})
		return
	}
	led.dropped++
	if led.delivered+led.dropped > led.length {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "over-delivery", Cycle: cycle, Node: f.Packet.Src,
			Port: -1, VC: -1, Component: "network",
			Detail: fmt.Sprintf("packet %d retired %d flits of length %d",
				f.Packet.ID, led.delivered+led.dropped, led.length),
		})
		return
	}
	if led.delivered+led.dropped == led.length {
		delete(c.packets, f.Packet.ID)
	}
}

// CheckConservation verifies end-of-run flit conservation: every injected
// flit is ejected, dropped, queued at a source, buffered in a router, or
// (boundedly) in flight on a wire. sourceQueued and buffered are the sums
// of the network's Snapshot; wireCap bounds the flits wires can hold (one
// per data wire).
func (c *Checker) CheckConservation(cycle int64, sourceQueued, buffered int, wireCap int) {
	if c == nil || c.errs[c.hookSlot()] != nil {
		return
	}
	outstanding := c.injected - c.ejected - c.dropped
	inFlight := outstanding - int64(sourceQueued) - int64(buffered)
	if inFlight < 0 || inFlight > int64(wireCap) {
		c.fail(c.hookSlot(), &InvariantError{
			Invariant: "flit-conservation", Cycle: cycle, Node: -1,
			Port: -1, VC: -1, Component: "network",
			Detail: fmt.Sprintf("injected %d = ejected %d + dropped %d + source-queued %d + buffered %d + in-flight %d, but in-flight must be within [0,%d]",
				c.injected, c.ejected, c.dropped, sourceQueued, buffered, inFlight, wireCap),
		})
	}
}
