package router

import (
	"fmt"

	"orion/internal/flit"
	"orion/internal/sim"
)

// Source is the message-generating agent of Section 2.2. It holds an
// unbounded source queue (latency measurement includes source queuing time,
// Section 4.1) and injects at most one flit per cycle into the router's
// local input port, respecting that port's credit-based flow control.
type Source struct {
	name string
	node int

	data   *sim.Wire[*flit.Flit]
	credit *sim.Wire[flit.Credit]

	vcs     int
	credits []int

	queue fifo[*flit.Flit]

	// current packet's VC assignment; -1 between packets.
	curVC  int
	vcPick picker

	// Injected counts flits sent into the network.
	Injected int64
}

// NewSource returns a source for the given node. vcs and depth describe
// the router's local input port (the downstream buffer the source must
// respect).
func NewSource(node, vcs, depth int, data *sim.Wire[*flit.Flit], credit *sim.Wire[flit.Credit]) (*Source, error) {
	if vcs <= 0 || depth <= 0 {
		return nil, fmt.Errorf("router: source needs positive vcs and depth, got %d/%d", vcs, depth)
	}
	if data == nil || credit == nil {
		return nil, fmt.Errorf("router: source needs data and credit wires")
	}
	credits := make([]int, vcs)
	for i := range credits {
		credits[i] = depth
	}
	return &Source{
		name:    fmt.Sprintf("source%d", node),
		node:    node,
		data:    data,
		credit:  credit,
		vcs:     vcs,
		credits: credits,
		curVC:   -1,
		vcPick:  picker{n: vcs},
	}, nil
}

// Name implements sim.Module.
func (s *Source) Name() string { return s.name }

// Enqueue appends a packet's flits to the source queue.
func (s *Source) Enqueue(flits []*flit.Flit) {
	for _, f := range flits {
		s.queue.push(f)
	}
}

// QueuedFlits returns the number of flits awaiting injection.
func (s *Source) QueuedFlits() int { return s.queue.len() }

// Quiescent implements sim.Gated: an empty source queue means Tick can
// only consume a returning credit, and the credit wire's waker re-raises
// the gate for exactly those cycles. Mid-packet injection always leaves
// the tail queued, so queue emptiness covers curVC too. The network wakes
// the gate whenever the generator enqueues a packet.
func (s *Source) Quiescent() bool { return s.queue.len() == 0 }

// Tick implements sim.Module: receive credits, then inject at most one
// flit. Packets are injected whole (flits of one packet are never
// interleaved with another packet's on the injection channel); the head
// flit picks any local-input VC with a free slot.
func (s *Source) Tick(cycle int64) error {
	if c, ok := s.credit.Take(); ok {
		if c.VC < 0 || c.VC >= s.vcs {
			return fmt.Errorf("source %d: credit for unknown VC %d", s.node, c.VC)
		}
		s.credits[c.VC]++
	}

	f, ok := s.queue.front()
	if !ok {
		return nil
	}
	if s.curVC < 0 {
		if !f.Kind.IsHead() {
			return fmt.Errorf("source %d: %v at queue front without a head", s.node, f)
		}
		var req uint64
		for v := 0; v < s.vcs; v++ {
			if s.credits[v] > 0 {
				req |= 1 << uint(v)
			}
		}
		v := s.vcPick.pick(req)
		if v < 0 {
			return nil // all local-input VCs full; wait
		}
		s.curVC = v
	}
	if s.credits[s.curVC] <= 0 {
		return nil
	}
	s.queue.pop()
	s.credits[s.curVC]--
	f.VC = s.curVC
	if err := s.data.Send(f); err != nil {
		return err
	}
	s.Injected++
	if f.Kind.IsTail() {
		s.curVC = -1
	}
	return nil
}

// SinkRecord reports one ejected flit to the network's statistics.
type SinkRecord func(f *flit.Flit, cycle int64)

// Sink is the message-consuming agent: it drains the router's ejection
// port every cycle (Section 4.1 assumes immediate ejection) and reports
// ejections. Its record callback feeds network-wide state (sampler,
// checker, counters) that must be touched by one goroutine in a fixed
// order, so a sink runs in the engine's ordered phase (it is a
// sim.OrderedTicker, not a Module): sinks registered in node order record
// in node order at every worker count.
type Sink struct {
	name   string
	node   int
	data   *sim.Wire[*flit.Flit]
	record SinkRecord

	// Ejected counts flits consumed.
	Ejected int64
}

// NewSink returns a sink for the given node's ejection wire.
func NewSink(node int, data *sim.Wire[*flit.Flit], record SinkRecord) (*Sink, error) {
	if data == nil {
		return nil, fmt.Errorf("router: sink needs a data wire")
	}
	return &Sink{
		name:   fmt.Sprintf("sink%d", node),
		node:   node,
		data:   data,
		record: record,
	}, nil
}

// Name implements sim.OrderedTicker.
func (s *Sink) Name() string { return s.name }

// Record returns the sink's ejection callback and SetRecord replaces it —
// a seam for tests that wrap delivery accounting (e.g. seeding a
// double-delivery bug to prove the invariant checker catches it).
func (s *Sink) Record() SinkRecord { return s.record }

// SetRecord replaces the sink's ejection callback.
func (s *Sink) SetRecord(r SinkRecord) { s.record = r }

// Quiescent lets the sink sleep under an activity gate: a sink holds no
// state between cycles — it only reacts to a delivered flit, and the
// ejection wire's waker raises the gate for exactly the cycles one is
// visible.
func (s *Sink) Quiescent() bool { return true }

// TickOrdered implements sim.OrderedTicker: consume the visible ejection
// flit, if any, count it and record it.
func (s *Sink) TickOrdered(cycle int64) error {
	f, ok := s.data.Take()
	if !ok {
		return nil
	}
	if f.Packet != nil && f.Packet.Dst != s.node {
		return fmt.Errorf("sink %d: misrouted flit %v (dst %d)", s.node, f, f.Packet.Dst)
	}
	s.Ejected++
	if s.record != nil {
		s.record(f, cycle)
	}
	return nil
}
