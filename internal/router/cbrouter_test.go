package router

import (
	"testing"

	"orion/internal/flit"
	"orion/internal/sim"
	"orion/internal/topology"
)

// producer drives one router input port like an upstream node, respecting
// credit flow control.
type producer struct {
	wire    *sim.Wire[*flit.Flit]
	cred    *sim.Wire[flit.Credit]
	credits int
	queue   fifo[*flit.Flit]
}

func (p *producer) Name() string { return "producer" }
func (p *producer) Tick(cycle int64) error {
	if _, ok := p.cred.Take(); ok {
		p.credits++
	}
	f, ok := p.queue.front()
	if !ok || p.credits <= 0 {
		return nil
	}
	p.queue.pop()
	p.credits--
	f.VC = 0
	return p.wire.Send(f)
}

// consumer drains one router output port like a downstream node, returning
// credits and counting flits.
type consumer struct {
	wire *sim.Wire[*flit.Flit]
	cred *sim.Wire[flit.Credit]
	n    int
	last map[int64]int // per-packet last sequence, for contiguity checks
	ids  []int64       // packet order observed on the wire
}

func (c *consumer) Name() string { return "consumer" }
func (c *consumer) Tick(cycle int64) error {
	f, ok := c.wire.Take()
	if !ok {
		return nil
	}
	c.n++
	if c.last == nil {
		c.last = make(map[int64]int)
	}
	id := f.Packet.ID
	if len(c.ids) == 0 || c.ids[len(c.ids)-1] != id {
		c.ids = append(c.ids, id)
	}
	c.last[id]++
	if c.cred != nil {
		return c.cred.Send(flit.Credit{VC: 0})
	}
	return nil
}

// cbRig is one central-buffered router with two driven inputs (local and
// west) and two consumed outputs (north and east).
type cbRig struct {
	engine      *sim.Engine
	router      *CBRouter
	local, west *producer
	north, east *consumer
}

func newCBRig(t *testing.T, cfg Config) *cbRig {
	t.Helper()
	bus := &sim.Bus{}
	eng := sim.NewEngine(1, false)
	r, err := NewCB(0, cfg, bus)
	if err != nil {
		t.Fatal(err)
	}
	rig := &cbRig{engine: eng, router: r}

	mkIn := func(port int) *producer {
		w := sim.NewWire[*flit.Flit]("in")
		c := sim.NewLossyWire[flit.Credit]("incred")
		eng.Connect(0, w)
		eng.Connect(0, c)
		if err := r.AttachInput(port, w, c); err != nil {
			t.Fatal(err)
		}
		return &producer{wire: w, cred: c, credits: cfg.BufferDepth}
	}
	mkOut := func(port int) *consumer {
		w := sim.NewWire[*flit.Flit]("out")
		c := sim.NewLossyWire[flit.Credit]("outcred")
		eng.Connect(0, w)
		eng.Connect(0, c)
		if err := r.AttachOutput(port, w, c, cfg.BufferDepth, false); err != nil {
			t.Fatal(err)
		}
		return &consumer{wire: w, cred: c}
	}
	rig.local = mkIn(topology.PortLocal)
	rig.west = mkIn(topology.PortWest)
	rig.north = mkOut(topology.PortNorth)
	rig.east = mkOut(topology.PortEast)

	eng.Register(0, rig.local, nil)
	eng.Register(0, rig.west, nil)
	eng.Register(0, r, nil)
	eng.Register(0, rig.north, nil)
	eng.Register(0, rig.east, nil)
	return rig
}

func cbTestConfig(readPorts int) Config {
	return Config{
		Kind: CentralBuffered, Ports: 5, VCs: 1, BufferDepth: 16, FlitBits: 64,
		CBBanks: 4, CBRows: 64, CBReadPorts: readPorts, CBWritePorts: 2, PortDim: portDim2D,
	}
}

func loadCBRig(rig *cbRig, packets int) {
	id := int64(0)
	for i := 0; i < packets; i++ {
		id++
		for _, f := range routedPacket(id, []int{topology.PortNorth, topology.PortLocal}, 5, 64) {
			rig.local.queue.push(f)
		}
		id++
		for _, f := range routedPacket(id, []int{topology.PortEast, topology.PortLocal}, 5, 64) {
			rig.west.queue.push(f)
		}
	}
}

// TestCBReadPortCapBoundsThroughput: the paper attributes the CB router's
// lower uniform-random throughput to its few fabric ports (Section 4.4).
// With 1 read port, egress is at most one flit per cycle; with 2, two.
func TestCBReadPortCapBoundsThroughput(t *testing.T) {
	const cycles = 60
	one := newCBRig(t, cbTestConfig(1))
	loadCBRig(one, 20)
	if err := one.engine.Run(cycles); err != nil {
		t.Fatal(err)
	}
	got1 := one.north.n + one.east.n
	if got1 > cycles {
		t.Errorf("1 read port delivered %d flits in %d cycles: cap violated", got1, cycles)
	}

	two := newCBRig(t, cbTestConfig(2))
	loadCBRig(two, 20)
	if err := two.engine.Run(cycles); err != nil {
		t.Fatal(err)
	}
	got2 := two.north.n + two.east.n
	if got2 <= got1 {
		t.Errorf("2 read ports delivered %d ≤ %d of 1 port", got2, got1)
	}
	// Two saturated inputs and two outputs: the dual-port fabric should
	// approach 2 flits/cycle.
	if got2 < int(1.5*float64(cycles)) {
		t.Errorf("2 read ports delivered %d flits in %d cycles, want near 2/cycle", got2, cycles)
	}
}

// TestCBPacketContiguityOnLinks: the CB router must emit each packet's
// flits contiguously per output (wormhole ordering), never interleaving
// two packets on one link.
func TestCBPacketContiguityOnLinks(t *testing.T) {
	rig := newCBRig(t, cbTestConfig(2))
	// Several packets from both inputs to the SAME output contend for it.
	id := int64(0)
	for i := 0; i < 6; i++ {
		id++
		for _, f := range routedPacket(id, []int{topology.PortNorth, topology.PortLocal}, 5, 64) {
			rig.local.queue.push(f)
		}
		id++
		for _, f := range routedPacket(id, []int{topology.PortNorth, topology.PortLocal}, 5, 64) {
			rig.west.queue.push(f)
		}
	}
	if err := rig.engine.Run(300); err != nil {
		t.Fatal(err)
	}
	if rig.north.n != 60 {
		t.Fatalf("delivered %d flits, want 60", rig.north.n)
	}
	// Contiguity: each packet id appears exactly once in the on-wire
	// packet order, and each delivered exactly 5 flits.
	seen := map[int64]bool{}
	for _, pid := range rig.north.ids {
		if seen[pid] {
			t.Fatalf("packet %d interleaved on the link (order %v)", pid, rig.north.ids)
		}
		seen[pid] = true
	}
	for pid, count := range rig.north.last {
		if count != 5 {
			t.Errorf("packet %d delivered %d flits", pid, count)
		}
	}
}

// TestCBWritePortCap: with 1 write port, ingress into the central buffer
// is one flit per cycle even with both inputs saturated.
func TestCBWritePortCap(t *testing.T) {
	cfg := cbTestConfig(2)
	cfg.CBWritePorts = 1
	rig := newCBRig(t, cfg)
	loadCBRig(rig, 20)
	const cycles = 60
	if err := rig.engine.Run(cycles); err != nil {
		t.Fatal(err)
	}
	if got := rig.north.n + rig.east.n; got > cycles {
		t.Errorf("1 write port delivered %d flits in %d cycles: cap violated", got, cycles)
	}
}
