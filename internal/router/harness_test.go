package router

import (
	"testing"

	"orion/internal/flit"
	"orion/internal/sim"
	"orion/internal/topology"
)

// pair is a two-node test fabric: node 0 and node 1 connected north/south
// (node 1 sits at (0,1)), each with a source and sink on the local port.
// It exercises the same wiring pattern the network builder uses.
type pair struct {
	engine    *sim.Engine
	bus       *sim.Bus
	routers   [2]Router
	sources   [2]*Source
	sinks     [2]*Sink
	ejected   []*flit.Flit
	ejectedAt []int64
}

func newRouterForTest(t *testing.T, node int, cfg Config, bus *sim.Bus) Router {
	t.Helper()
	var (
		r   Router
		err error
	)
	if cfg.Kind == CentralBuffered {
		r, err = NewCB(node, cfg, bus)
	} else {
		r, err = NewXB(node, cfg, bus)
	}
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	return r
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	bus := &sim.Bus{}
	eng := sim.NewEngine(1, false)
	p := &pair{engine: eng, bus: bus}

	for n := 0; n < 2; n++ {
		p.routers[n] = newRouterForTest(t, n, cfg, bus)
	}

	connect := func(from Router, outPort int, to Router, fromNode, toNode int) {
		data := sim.NewWire[*flit.Flit]("data")
		cred := sim.NewLossyWire[flit.Credit]("credit")
		eng.Connect(0, data)
		eng.Connect(0, cred)
		if err := from.AttachOutput(outPort, data, cred, cfg.BufferDepth, false); err != nil {
			t.Fatal(err)
		}
		if err := to.AttachInput(topology.Opposite(outPort), data, cred); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 north -> node 1 south input, and the reverse direction.
	connect(p.routers[0], topology.PortNorth, p.routers[1], 0, 1)
	connect(p.routers[1], topology.PortSouth, p.routers[0], 1, 0)

	for n := 0; n < 2; n++ {
		// Injection.
		data := sim.NewWire[*flit.Flit]("inject")
		cred := sim.NewLossyWire[flit.Credit]("inject-credit")
		eng.Connect(0, data)
		eng.Connect(0, cred)
		if err := p.routers[n].AttachInput(topology.PortLocal, data, cred); err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(n, cfg.VCs, cfg.BufferDepth, data, cred)
		if err != nil {
			t.Fatal(err)
		}
		p.sources[n] = src

		// Ejection.
		eject := sim.NewWire[*flit.Flit]("eject")
		eng.Connect(0, eject)
		if err := p.routers[n].AttachOutput(topology.PortLocal, eject, nil, 0, true); err != nil {
			t.Fatal(err)
		}
		sink, err := NewSink(n, eject, func(f *flit.Flit, cycle int64) {
			p.ejected = append(p.ejected, f)
			p.ejectedAt = append(p.ejectedAt, cycle)
		})
		if err != nil {
			t.Fatal(err)
		}
		p.sinks[n] = sink
	}

	for n := 0; n < 2; n++ {
		eng.Register(0, p.sources[n], nil)
		eng.Register(0, p.routers[n], nil)
		eng.RegisterOrdered(p.sinks[n], nil)
	}
	return p
}

// makePacket builds an L-flit packet from node 0 to node 1 (route north
// then eject) with distinctive payloads.
func makePacket(id int64, length, flitBits int) []*flit.Flit {
	pkt := &flit.Packet{
		ID:     id,
		Src:    0,
		Dst:    1,
		Route:  []int{topology.PortNorth, topology.PortLocal},
		Length: length,
	}
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
		payload := make([]uint64, words)
		for w := range payload {
			payload[w] = uint64(id)<<32 | uint64(i*8+w)
		}
		fl[i] = &flit.Flit{Packet: pkt, Seq: i, Kind: kind, Payload: payload}
	}
	return fl
}

func (p *pair) run(t *testing.T, cycles int64) {
	t.Helper()
	if err := p.engine.Run(cycles); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

// portDim2D is the dimension each port of a 2-D grid router moves
// along: north and south, then east and west; the local port has none.
var portDim2D = []int{0, 0, 1, 1, -1}

func whConfig() Config {
	return Config{Kind: Wormhole, Ports: 5, VCs: 1, BufferDepth: 16, FlitBits: 64, PortDim: portDim2D}
}

func vcConfig() Config {
	return Config{Kind: VirtualChannel, Ports: 5, VCs: 2, BufferDepth: 8, FlitBits: 64, PortDim: portDim2D}
}

func cbConfig() Config {
	return Config{Kind: CentralBuffered, Ports: 5, VCs: 1, BufferDepth: 16, FlitBits: 64,
		CBBanks: 4, CBRows: 64, CBReadPorts: 2, CBWritePorts: 2, PortDim: portDim2D}
}
