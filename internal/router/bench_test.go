package router

import (
	"runtime"
	"testing"

	"orion/internal/fault"
	"orion/internal/flit"
	"orion/internal/sim"
	"orion/internal/topology"
)

// benchFabric is the two-node fabric of newPair with discard sinks: ejected
// flits are dropped instead of collected, so a steady-state engine step
// performs no allocation and the tick path can be benchmarked and pinned at
// 0 allocs/op.
type benchFabric struct {
	engine  *sim.Engine
	bus     *sim.Bus
	routers [2]Router
	sources [2]*Source
}

func newBenchFabric(tb testing.TB, cfg Config) *benchFabric {
	tb.Helper()
	bus := &sim.Bus{}
	eng := sim.NewEngine(1, false)
	f := &benchFabric{engine: eng, bus: bus}

	routers := &f.routers
	for n := 0; n < 2; n++ {
		var (
			r   Router
			err error
		)
		if cfg.Kind == CentralBuffered {
			r, err = NewCB(n, cfg, bus)
		} else {
			r, err = NewXB(n, cfg, bus)
		}
		if err != nil {
			tb.Fatalf("building router: %v", err)
		}
		routers[n] = r
	}

	connect := func(from Router, outPort int, to Router) {
		data := sim.NewWire[*flit.Flit]("data")
		cred := sim.NewLossyWire[flit.Credit]("credit")
		eng.Connect(0, data)
		eng.Connect(0, cred)
		if err := from.AttachOutput(outPort, data, cred, cfg.BufferDepth, false); err != nil {
			tb.Fatal(err)
		}
		if err := to.AttachInput(topology.Opposite(outPort), data, cred); err != nil {
			tb.Fatal(err)
		}
	}
	connect(routers[0], topology.PortNorth, routers[1])
	connect(routers[1], topology.PortSouth, routers[0])

	for n := 0; n < 2; n++ {
		data := sim.NewWire[*flit.Flit]("inject")
		cred := sim.NewLossyWire[flit.Credit]("inject-credit")
		eng.Connect(0, data)
		eng.Connect(0, cred)
		if err := routers[n].AttachInput(topology.PortLocal, data, cred); err != nil {
			tb.Fatal(err)
		}
		src, err := NewSource(n, cfg.VCs, cfg.BufferDepth, data, cred)
		if err != nil {
			tb.Fatal(err)
		}
		f.sources[n] = src

		eject := sim.NewWire[*flit.Flit]("eject")
		eng.Connect(0, eject)
		if err := routers[n].AttachOutput(topology.PortLocal, eject, nil, 0, true); err != nil {
			tb.Fatal(err)
		}
		sink, err := NewSink(n, eject, nil)
		if err != nil {
			tb.Fatal(err)
		}

		eng.Register(0, src, nil)
		eng.Register(0, routers[n], nil)
		eng.RegisterOrdered(sink, nil)
	}
	return f
}

// load enqueues n 5-flit packets at node 0 addressed to node 1.
func (f *benchFabric) load(n, flitBits int) {
	for i := 0; i < n; i++ {
		f.sources[0].Enqueue(makePacket(int64(i+1), 5, flitBits))
	}
}

// benchRouterTick measures one engine step (two routers plus sources, sinks
// and wires) with traffic in flight. Packet construction happens with the
// timer stopped; the refill budget keeps the injection queue non-empty for
// every timed step, so the measurement is the busy tick path.
func benchRouterTick(b *testing.B, cfg Config) {
	f := newBenchFabric(b, cfg)
	const refill = 64 // packets per refill: 320 flits, 300 busy steps
	budget := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if budget == 0 {
			b.StopTimer()
			f.load(refill, cfg.FlitBits)
			budget = refill*5 - 20
			b.StartTimer()
		}
		if err := f.engine.Step(); err != nil {
			b.Fatal(err)
		}
		budget--
	}
}

func BenchmarkRouterTickWormhole(b *testing.B) { benchRouterTick(b, whConfig()) }
func BenchmarkRouterTickVC(b *testing.B)       { benchRouterTick(b, vcConfig()) }
func BenchmarkRouterTickCB(b *testing.B)       { benchRouterTick(b, cbConfig()) }

// TestRouterTickZeroAlloc pins the steady-state tick of all three router
// kinds at zero heap allocations AND zero heap bytes per cycle: plain, with
// a bandwidth governor on the loaded link, and with LinkStall and BitFlip
// windows open on it, so the governed and faulted link paths are pinned
// too. The central-buffered router's per-packet tracking record is
// recycled through a free list, so after warm-up even its amortised byte
// rate (formerly ~70 B/op at 0 allocs/op) must be exactly zero. Bytes are
// measured with MemStats.TotalAlloc, which counts every allocation
// exactly regardless of GC, so the assertion is B/op == 0, not "rounds
// to 0".
func TestRouterTickZeroAlloc(t *testing.T) {
	// The central-buffered router allocates a packet record whenever the
	// packets it holds reach a new peak, so the governed and faulted
	// variants warm up until the slowed link has filled the central
	// buffer (the governor's half-rate link by cycle ~530, the faulted
	// variant's long warm-up stall by cycle 400) and the output queue's
	// backing slice has settled at that depth. The measured stall window
	// then cannot push either past its peak.
	//
	// setup returns a probe of the variant's activity on the link (governed
	// sends, or stalled cycles plus flipped flits), which must move during
	// the measurement so the variant's path is the one measured.
	variants := []struct {
		name   string
		warmup int
		setup  func(t *testing.T, r Router) (probe func() int64)
	}{
		{"plain", 400, func(*testing.T, Router) func() int64 { return nil }},
		{"governed", 700, func(t *testing.T, r Router) func() int64 {
			gov := &governorStub{period: 2}
			if err := r.SetGovernor(topology.PortNorth, gov); err != nil {
				t.Fatal(err)
			}
			return func() int64 { return int64(gov.sends) }
		}},
		{"faulted", 1000, func(t *testing.T, r Router) func() int64 {
			inj, err := fault.NewInjector(fault.Config{Seed: 1, Faults: []fault.Fault{
				{Kind: fault.LinkStall, Node: 0, Port: topology.PortNorth, Start: 100, Duration: 300},
				{Kind: fault.LinkStall, Node: 0, Port: topology.PortNorth, Start: 1050, Duration: 40},
				{Kind: fault.BitFlip, Node: 0, Port: topology.PortNorth, Rate: 0.5},
			}}, 2, 5)
			if err != nil {
				t.Fatal(err)
			}
			r.SetFaults(inj.Node(0), nil)
			return func() int64 {
				s := inj.Stats()
				return s.StalledLinkCycles + s.FlippedFlits
			}
		}},
	}
	for _, cfg := range []Config{whConfig(), vcConfig(), cbConfig()} {
		for _, v := range variants {
			f := newBenchFabric(t, cfg)
			probe := v.setup(t, f.routers[0])
			f.load(400, cfg.FlitBits) // 2000 flits: busy past the measurement
			// Warm up so FIFO rings, the grant scratch and the CB packet
			// free list reach capacity. A fifo's backing slice peaks only
			// at its first compaction (pop compacts after 32 dead slots),
			// so the warm-up must run well past that point for the append
			// in push to stop growing capacity — and the CB output queue
			// pops once per packet (5 flits), putting its compaction point
			// 5× further out than the flit-rate queues'.
			for i := 0; i < v.warmup; i++ {
				if err := f.engine.Step(); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 200
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			var active int64
			if probe != nil {
				active = -probe()
			}
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if err := f.engine.Step(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if probe != nil {
				if active += probe(); active == 0 {
					t.Errorf("%s/%s: the link path under test stayed idle during the measurement", cfg.Kind, v.name)
				}
			}
			if mallocs := after.Mallocs - before.Mallocs; mallocs != 0 {
				t.Errorf("%s/%s: engine step allocated %d objects over %d steady-state cycles, want 0", cfg.Kind, v.name, mallocs, runs)
			}
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes != 0 {
				t.Errorf("%s/%s: engine step allocated %d heap bytes over %d steady-state cycles, want 0 B/op", cfg.Kind, v.name, bytes, runs)
			}
		}
	}
}
