package router

import (
	"testing"

	"orion/internal/flit"
	"orion/internal/sim"
	"orion/internal/topology"
)

// holRig is a single router with its north output permanently blocked (no
// downstream credits) and its east output free, for demonstrating
// head-of-line blocking — the phenomenon virtual channels exist to avoid
// and the reason the paper's central-buffered router wins under
// non-uniform traffic (Section 4.4).
type holRig struct {
	engine   *sim.Engine
	bus      *sim.Bus
	router   *XBRouter
	source   *Source
	east     *sim.Wire[*flit.Flit]
	eastCred *sim.Wire[flit.Credit]
	eastN    int
}

func newHOLRig(t *testing.T, cfg Config) *holRig {
	t.Helper()
	bus := &sim.Bus{}
	eng := sim.NewEngine(1, false)
	r, err := NewXB(0, cfg, bus)
	if err != nil {
		t.Fatal(err)
	}
	rig := &holRig{engine: eng, bus: bus, router: r}

	// North: a wire exists but the downstream never grants credits.
	north := sim.NewLossyWire[*flit.Flit]("north")
	northCred := sim.NewLossyWire[flit.Credit]("north-credit")
	eng.Connect(0, north)
	eng.Connect(0, northCred)
	if err := r.AttachOutput(topology.PortNorth, north, northCred, 0, false); err != nil {
		t.Fatal(err)
	}

	// East: normal capacity; flits are drained by a consumer module that
	// returns credits like a healthy downstream router.
	rig.east = sim.NewWire[*flit.Flit]("east")
	eastCred := sim.NewLossyWire[flit.Credit]("east-credit")
	eng.Connect(0, rig.east)
	eng.Connect(0, eastCred)
	if err := r.AttachOutput(topology.PortEast, rig.east, eastCred, 16, false); err != nil {
		t.Fatal(err)
	}
	rig.eastCred = eastCred

	// Injection.
	inj := sim.NewWire[*flit.Flit]("inject")
	injCred := sim.NewLossyWire[flit.Credit]("inject-credit")
	eng.Connect(0, inj)
	eng.Connect(0, injCred)
	if err := r.AttachInput(topology.PortLocal, inj, injCred); err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(0, cfg.VCs, cfg.BufferDepth, inj, injCred)
	if err != nil {
		t.Fatal(err)
	}
	rig.source = src

	eng.Register(0, src, nil)
	eng.Register(0, r, nil)
	eng.Register(0, moduleFunc(func(cycle int64) error {
		if f, ok := rig.east.Take(); ok {
			rig.eastN++
			return rig.eastCred.Send(flit.Credit{VC: f.VC})
		}
		return nil
	}), nil)
	return rig
}

// moduleFunc adapts a function to sim.Module.
type moduleFunc func(cycle int64) error

func (f moduleFunc) Name() string           { return "func" }
func (f moduleFunc) Tick(cycle int64) error { return f(cycle) }

func routedPacket(id int64, route []int, length, flitBits int) []*flit.Flit {
	pkt := &flit.Packet{ID: id, Src: 0, Dst: 1, Route: route, Length: length}
	words := flit.PayloadWords(flitBits)
	fl := make([]*flit.Flit, length)
	for i := range fl {
		kind := flit.Body
		switch {
		case length == 1:
			kind = flit.HeadTail
		case i == 0:
			kind = flit.Head
		case i == length-1:
			kind = flit.Tail
		}
		fl[i] = &flit.Flit{Packet: pkt, Seq: i, Kind: kind, Payload: make([]uint64, words)}
	}
	return fl
}

// TestWormholeHeadOfLineBlocking: with a single queue per port, a packet
// stuck behind a blocked output also blocks a later packet whose own
// output is free.
func TestWormholeHeadOfLineBlocking(t *testing.T) {
	rig := newHOLRig(t, whConfig())
	rig.source.Enqueue(routedPacket(1, []int{topology.PortNorth, topology.PortLocal}, 5, 64))
	rig.source.Enqueue(routedPacket(2, []int{topology.PortEast, topology.PortLocal}, 5, 64))
	if err := rig.engine.Run(200); err != nil {
		t.Fatal(err)
	}
	if rig.eastN != 0 {
		t.Errorf("wormhole router forwarded %d east flits past a blocked head", rig.eastN)
	}
}

// TestVirtualChannelsAvoidHeadOfLineBlocking: the same scenario with 2 VCs
// lets the second packet pass the blocked one — the core mechanism behind
// the paper's Figure 5 comparison.
func TestVirtualChannelsAvoidHeadOfLineBlocking(t *testing.T) {
	rig := newHOLRig(t, vcConfig())
	rig.source.Enqueue(routedPacket(1, []int{topology.PortNorth, topology.PortLocal}, 5, 64))
	rig.source.Enqueue(routedPacket(2, []int{topology.PortEast, topology.PortLocal}, 5, 64))
	if err := rig.engine.Run(200); err != nil {
		t.Fatal(err)
	}
	if rig.eastN != 5 {
		t.Errorf("VC router forwarded %d east flits, want 5 (second packet bypasses)", rig.eastN)
	}
	// The blocked packet must still be buffered, not lost.
	if rig.router.BufferedFlits() != 5 {
		t.Errorf("%d flits buffered, want the 5 blocked ones", rig.router.BufferedFlits())
	}
}

// governorStub throttles to one send every `period` cycles and counts
// notifications.
type governorStub struct {
	period int64
	sends  int
}

func (g *governorStub) SendPeriod(cycle int64) int64 { return g.period }
func (g *governorStub) OnSend(cycle int64)           { g.sends++ }

// TestOutputGovernorThrottles: a governor with period 2 halves an output's
// bandwidth.
func TestOutputGovernorThrottles(t *testing.T) {
	rig := newHOLRig(t, whConfig())
	gov := &governorStub{period: 2}
	if err := rig.router.SetGovernor(topology.PortEast, gov); err != nil {
		t.Fatal(err)
	}
	if err := rig.router.SetGovernor(99, gov); err == nil {
		t.Error("out-of-range governor port should fail")
	}
	for i := int64(1); i <= 4; i++ {
		rig.source.Enqueue(routedPacket(i, []int{topology.PortEast, topology.PortLocal}, 5, 64))
	}
	// 20 flits at half bandwidth need ≥ 40 cycles; measure the spacing.
	if err := rig.engine.Run(100); err != nil {
		t.Fatal(err)
	}
	if rig.eastN != 20 {
		t.Fatalf("delivered %d flits, want 20", rig.eastN)
	}
	if gov.sends != 20 {
		t.Errorf("governor saw %d sends, want 20", gov.sends)
	}

	// Unthrottled, the same traffic drains in about half the time.
	fast := newHOLRig(t, whConfig())
	for i := int64(1); i <= 4; i++ {
		fast.source.Enqueue(routedPacket(i, []int{topology.PortEast, topology.PortLocal}, 5, 64))
	}
	if err := fast.engine.Run(40); err != nil {
		t.Fatal(err)
	}
	if fast.eastN != 20 {
		t.Errorf("unthrottled router delivered %d flits in 40 cycles, want 20", fast.eastN)
	}
	slow := newHOLRig(t, whConfig())
	if err := slow.router.SetGovernor(topology.PortEast, &governorStub{period: 2}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		slow.source.Enqueue(routedPacket(i, []int{topology.PortEast, topology.PortLocal}, 5, 64))
	}
	if err := slow.engine.Run(40); err != nil {
		t.Fatal(err)
	}
	if slow.eastN >= 20 {
		t.Errorf("throttled router delivered %d flits in 40 cycles; throttle had no effect", slow.eastN)
	}
}
