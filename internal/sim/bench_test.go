package sim

import "testing"

// Publish is the innermost loop of a simulation (every buffer access,
// arbitration, crossbar and link traversal passes through it), so its
// allocation behaviour is pinned by tests, not just observed in benchmarks:
// a regression from 0 allocs/op multiplies into hundreds of thousands of
// heap objects per run.

func busForBench() (*Bus, *float64) {
	var bus Bus
	sink := new(float64)
	bus.Subscribe(func(e *Event) { *sink += float64(e.Cycle) })
	bus.SubscribeType(EvBufferWrite, func(e *Event) { *sink += float64(e.Port) })
	bus.SubscribeType(EvLinkTraversal, func(e *Event) { *sink += float64(e.Port) })
	return &bus, sink
}

func BenchmarkBusPublish(b *testing.B) {
	bus, sink := busForBench()
	data := []uint64{0xdeadbeefcafef00d}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := bus.Begin(EvBufferWrite, int64(i), 3)
		e.Port, e.Data = 1, data
		bus.Publish()
	}
	_ = sink
}

func BenchmarkBusPublishUntyped(b *testing.B) {
	// An event type with no typed listeners: only the all-event fan-out.
	bus, sink := busForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := bus.Begin(EvArbitration, int64(i), 0)
		e.ReqVector, e.Winner = 0b1011, 1
		bus.Publish()
	}
	_ = sink
}

func TestBusPublishZeroAlloc(t *testing.T) {
	bus, _ := busForBench()
	data := []uint64{42}
	allocs := testing.AllocsPerRun(1000, func() {
		e := bus.Begin(EvBufferWrite, 0, 1)
		e.Port, e.Data = 2, data
		bus.Publish()
		bus.Begin(EvLinkTraversal, 0, 1).Data = data
		bus.Publish()
		bus.Begin(EvArbitration, 0, 0).ReqVector = 3
		bus.Publish()
	})
	if allocs != 0 {
		t.Errorf("Publish allocated %.1f objects per 3 events, want 0", allocs)
	}
}

func TestWireSendZeroAlloc(t *testing.T) {
	w := NewWire[int]("bench")
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Send(7); err != nil {
			t.Fatal(err)
		}
		if err := w.Latch(); err != nil {
			t.Fatal(err)
		}
		if _, ok := w.Take(); !ok {
			t.Fatal("value lost")
		}
	})
	if allocs != 0 {
		t.Errorf("Wire Send/Latch/Take allocated %.1f objects per cycle, want 0", allocs)
	}
}
