package router

import (
	"runtime"
	"testing"

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
	sources [2]*Source
}

func newBenchFabric(tb testing.TB, cfg Config) *benchFabric {
	tb.Helper()
	bus := &sim.Bus{}
	eng := sim.NewEngine(1, false)
	f := &benchFabric{engine: eng, bus: bus}

	var routers [2]Router
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
		eng.Register(0, sink, nil)
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
// kinds at zero heap allocations AND zero heap bytes per cycle. The
// central-buffered router's per-packet tracking record is recycled
// through a free list, so after warm-up even its amortised byte rate
// (formerly ~70 B/op at 0 allocs/op) must be exactly zero. Bytes are
// measured with MemStats.TotalAlloc, which counts every allocation
// exactly regardless of GC, so the assertion is B/op == 0, not "rounds
// to 0".
func TestRouterTickZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{whConfig(), vcConfig(), cbConfig()} {
		f := newBenchFabric(t, cfg)
		f.load(150, cfg.FlitBits) // 750 flits: busy past the measurement
		// Warm up so FIFO rings, the grant scratch and the CB packet
		// free list reach capacity. A fifo's backing slice peaks only at
		// its first compaction (pop compacts after 32 dead slots), so
		// the warm-up must run well past that point for the append in
		// push to stop growing capacity — and the CB output queue pops
		// once per packet (5 flits), putting its compaction point 5×
		// further out than the flit-rate queues'.
		for i := 0; i < 400; i++ {
			if err := f.engine.Step(); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 200
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := f.engine.Step(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if mallocs := after.Mallocs - before.Mallocs; mallocs != 0 {
			t.Errorf("%s: engine step allocated %d objects over %d steady-state cycles, want 0", cfg.Kind, mallocs, runs)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes != 0 {
			t.Errorf("%s: engine step allocated %d heap bytes over %d steady-state cycles, want 0 B/op", cfg.Kind, bytes, runs)
		}
	}
}
