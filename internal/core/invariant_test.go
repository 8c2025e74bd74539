package core

import (
	"errors"
	"strings"
	"testing"

	"orion/internal/flit"
	"orion/internal/router"
	"orion/internal/sim"
)

func testChecker() *Checker {
	return NewChecker([]*sim.Bus{{}}, 4, router.Config{Ports: 5, VCs: 2, BufferDepth: 4})
}

func mkPacket(id int64, length int) *flit.Packet {
	return &flit.Packet{ID: id, Src: 0, Dst: 3, Length: length, Route: []int{0, 0, 4}}
}

func mkFlit(p *flit.Packet, seq int, kind flit.Kind) *flit.Flit {
	return &flit.Flit{Packet: p, Seq: seq, Kind: kind, Hop: len(p.Route) - 1}
}

// TestCheckerCatchesDoubleDelivery seeds the classic duplicated-flit bug —
// the same tail ejected twice — and asserts the checker reports it as an
// over-delivery naming the cycle and the destination node.
func TestCheckerCatchesDoubleDelivery(t *testing.T) {
	c := testChecker()
	p := mkPacket(7, 2)
	c.OnInject(p)
	c.OnEject(mkFlit(p, 0, flit.Head), 100)
	c.OnEject(mkFlit(p, 1, flit.Tail), 101)
	if err := c.Err(); err != nil {
		t.Fatalf("clean delivery flagged: %v", err)
	}
	// The bug: the tail arrives again.
	c.OnEject(mkFlit(p, 1, flit.Tail), 102)
	err := c.Err()
	if err == nil {
		t.Fatal("double delivery not caught")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Errorf("violation does not wrap ErrInvariant: %v", err)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("violation is not an *InvariantError: %v", err)
	}
	// A fully retired packet's ledger is deleted, so the duplicate surfaces
	// as an unknown packet; a duplicate while the ledger is open surfaces as
	// over-delivery. Either way the diagnostic names cycle and node.
	if ie.Invariant != "unknown-packet" && ie.Invariant != "over-delivery" {
		t.Errorf("invariant = %q, want unknown-packet or over-delivery", ie.Invariant)
	}
	if ie.Cycle != 102 {
		t.Errorf("cycle = %d, want 102", ie.Cycle)
	}
	if ie.Node != 3 {
		t.Errorf("node = %d, want destination 3", ie.Node)
	}
	if !strings.Contains(err.Error(), "cycle 102") || !strings.Contains(err.Error(), "node 3") {
		t.Errorf("diagnostic does not name cycle and node: %v", err)
	}
}

// TestCheckerCatchesDuplicateMidPacket duplicates a flit while the packet
// ledger is still open: the repeat of an already-delivered sequence number
// violates monotonic delivery.
func TestCheckerCatchesDuplicateMidPacket(t *testing.T) {
	c := testChecker()
	// Deliver a packet's head twice without the tail.
	q := mkPacket(9, 3)
	c.OnInject(q)
	c.OnEject(mkFlit(q, 0, flit.Head), 50)
	c.OnEject(mkFlit(q, 0, flit.Head), 51) // duplicate, out of order
	err := c.Err()
	if err == nil {
		t.Fatal("duplicate mid-packet flit not caught")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatal("not an *InvariantError")
	}
	if ie.Invariant != "monotonic-delivery" {
		t.Errorf("invariant = %q, want monotonic-delivery", ie.Invariant)
	}
}

func TestCheckerMonotonicDelivery(t *testing.T) {
	c := testChecker()
	p := mkPacket(1, 3)
	c.OnInject(p)
	c.OnEject(mkFlit(p, 1, flit.Body), 10) // seq 1 before seq 0
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "monotonic-delivery" {
		t.Errorf("out-of-order delivery: got %v", c.Err())
	}
}

func TestCheckerUnknownPacket(t *testing.T) {
	c := testChecker()
	p := mkPacket(99, 2) // never injected
	c.OnEject(mkFlit(p, 0, flit.Head), 5)
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "unknown-packet" {
		t.Errorf("unknown packet: got %v", c.Err())
	}
}

func TestCheckerHopLimit(t *testing.T) {
	c := testChecker()
	p := mkPacket(2, 1)
	c.OnInject(p)
	f := mkFlit(p, 0, flit.HeadTail)
	f.Hop = 0 // ejected short of its route
	c.OnEject(f, 20)
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "hop-limit" {
		t.Errorf("short route ejection: got %v", c.Err())
	}
}

func TestCheckerBufferOccupancyBounds(t *testing.T) {
	bus := &sim.Bus{}
	c := NewChecker([]*sim.Bus{bus}, 2, router.Config{Ports: 5, VCs: 1, BufferDepth: 2})
	ev := func(ty sim.EventType, node, port int) {
		e := bus.Begin(ty, 1, node)
		e.Port, e.VC = port, 0
		bus.Publish()
	}
	ev(sim.EvBufferWrite, 0, 1)
	ev(sim.EvBufferWrite, 0, 1)
	if c.Err() != nil {
		t.Fatalf("at-capacity flagged: %v", c.Err())
	}
	ev(sim.EvBufferWrite, 0, 1) // exceeds depth 2
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "buffer-occupancy" {
		t.Fatalf("overflow not caught: %v", c.Err())
	}
	if ie.Node != 0 || ie.Port != 1 || ie.VC != 0 {
		t.Errorf("violation location = node %d port %d vc %d, want 0/1/0", ie.Node, ie.Port, ie.VC)
	}
}

func TestCheckerUnderflow(t *testing.T) {
	bus := &sim.Bus{}
	c := NewChecker([]*sim.Bus{bus}, 1, router.Config{Ports: 5, VCs: 1, BufferDepth: 2})
	bus.Begin(sim.EvBufferRead, 3, 0).VC = 0
	bus.Publish()
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "buffer-occupancy" {
		t.Errorf("underflow not caught: %v", c.Err())
	}
}

func TestCheckerConservation(t *testing.T) {
	c := testChecker()
	p := mkPacket(1, 5)
	c.OnInject(p)
	for seq := 0; seq < 5; seq++ {
		kind := flit.Body
		switch seq {
		case 0:
			kind = flit.Head
		case 4:
			kind = flit.Tail
		}
		c.OnEject(mkFlit(p, seq, kind), int64(10+seq))
	}
	c.CheckConservation(100, 0, 0, 24)
	if c.Err() != nil {
		t.Fatalf("balanced books flagged: %v", c.Err())
	}
	// Now cook the books: an injected packet that never went anywhere.
	c.OnInject(mkPacket(2, 30))
	c.CheckConservation(200, 0, 0, 24) // 30 outstanding > 24 wire capacity
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "flit-conservation" {
		t.Fatalf("conservation violation not caught: %v", c.Err())
	}
	if ie.Node != -1 || !strings.Contains(ie.Error(), "network-wide") {
		t.Errorf("conservation violation should be network-wide: %v", ie)
	}
}

func TestCheckerDropAccounting(t *testing.T) {
	c := testChecker()
	p := mkPacket(5, 3)
	c.OnInject(p)
	for seq := 0; seq < 3; seq++ {
		c.OnDrop(&flit.Flit{Packet: p, Seq: seq}, 40)
	}
	if c.Err() != nil {
		t.Fatalf("full drop flagged: %v", c.Err())
	}
	c.CheckConservation(50, 0, 0, 24)
	if c.Err() != nil {
		t.Fatalf("dropped flits broke conservation: %v", c.Err())
	}
	// One drop too many re-opens the (deleted) ledger as unknown.
	c.OnDrop(&flit.Flit{Packet: p, Seq: 0}, 60)
	var ie *InvariantError
	if !errors.As(c.Err(), &ie) || ie.Invariant != "unknown-packet" {
		t.Errorf("over-retirement not caught: %v", c.Err())
	}
}

// TestRunDetectsSeededDoubleDelivery wires a sabotaged sink into a real
// run: the network's ejection callback is invoked twice per flit, and the
// run must abort with the over-delivery / monotonic-delivery diagnostic
// rather than report corrupted statistics.
func TestRunDetectsSeededDoubleDelivery(t *testing.T) {
	cfg := testConfig(t, 0.05)
	cfg.CheckInvariants = true
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: report every ejection to the checker twice, as a buggy
	// sink double-delivering flits would.
	for _, s := range n.sinks {
		orig := s.Record()
		s.SetRecord(func(f *flit.Flit, cycle int64) {
			orig(f, cycle)
			n.checker.OnEject(f, cycle)
		})
	}
	_, err = n.Run()
	if err == nil {
		t.Fatal("sabotaged run did not fail")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("sabotaged run failed for the wrong reason: %v", err)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("no structured diagnostic: %v", err)
	}
	if ie.Node < 0 || ie.Cycle <= 0 {
		t.Errorf("diagnostic does not localise the bug: %+v", ie)
	}
}
