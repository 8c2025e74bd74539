package sim

import (
	"fmt"
	"testing"
)

// gatedMod is a testMod that consumes values from an input wire and
// reports quiescent while the wire delivered nothing and no work is
// queued. work simulates multi-cycle internal activity: each consumed
// value keeps the module busy for that many further ticks.
type gatedMod struct {
	testMod
	in   *Wire[int]
	work int
	got  []int
}

func newGatedMod(name string, in *Wire[int]) *gatedMod {
	return &gatedMod{testMod: *newTestMod(name), in: in}
}

func (m *gatedMod) Tick(cycle int64) error {
	if err := m.testMod.Tick(cycle); err != nil {
		return err
	}
	if m.work > 0 {
		m.work--
	}
	if m.in != nil {
		if v, ok := m.in.Take(); ok {
			m.got = append(m.got, v)
			m.work += v
		}
	}
	return nil
}

func (m *gatedMod) Quiescent() bool { return m.work == 0 }

func TestGatingSkipsQuiescentModules(t *testing.T) {
	e := NewEngine(1, true)
	wire := NewWire[int]("in")
	e.Connect(0, wire)
	idle := newGatedMod("idle", nil)
	e.Register(0, idle, e.NewGate(idle))
	busy := newTestMod("busy") // ungated: must tick every cycle
	e.Register(0, busy, nil)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	// The idle module ticks once (gates start awake), reports quiescent,
	// and is never ticked again.
	if idle.ticks != 1 {
		t.Errorf("idle module ticked %d times, want 1", idle.ticks)
	}
	if busy.ticks != 10 {
		t.Errorf("ungated module ticked %d times, want 10", busy.ticks)
	}
}

func TestGatingWireSendWakesConsumer(t *testing.T) {
	e := NewEngine(1, true)
	wire := NewWire[int]("in")
	e.Connect(0, wire)
	m := newGatedMod("consumer", wire)
	g := e.NewGate(m)
	e.Register(0, m, g)
	wire.SetWaker(g)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if m.ticks != 1 {
		t.Fatalf("consumer ticked %d times while idle, want 1", m.ticks)
	}
	// A send during cycle 5 delivers at cycle 6; the consumer must wake
	// exactly for that cycle, work for 2 more, then sleep again.
	if err := wire.Send(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(m.got) != 1 || m.got[0] != 2 {
		t.Fatalf("consumer got %v, want [2]", m.got)
	}
	// Ticks: 1 (initial) + 1 (delivery at cycle 6) + 2 (work) = 4.
	if m.ticks != 4 {
		t.Errorf("consumer ticked %d times, want 4", m.ticks)
	}
}

func TestGatingNoLostWakeOnSleepCycle(t *testing.T) {
	// A producer sends to a consumer in the same cycle the consumer goes
	// to sleep: the wake bit must survive the sleep and the value must be
	// consumed, never dropped.
	e := NewEngine(1, true)
	wire := NewWire[int]("in")
	e.Connect(0, wire)
	consumer := newGatedMod("consumer", wire)
	cg := e.NewGate(consumer)
	e.Register(0, consumer, cg)
	wire.SetWaker(cg)
	// The producer sends one value per cycle for 3 cycles, starting at
	// cycle 2 — after the consumer has already gone quiescent.
	producer := newTestMod("producer")
	e.Register(0, producer, nil)
	sent := 0
	for cycle := int64(0); cycle < 12; cycle++ {
		if cycle >= 2 && cycle < 5 {
			if err := wire.Send(0); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(consumer.got) != sent {
		t.Fatalf("consumer got %d values, want %d (strict wire would have errored on a drop)", len(consumer.got), sent)
	}
}

func TestGatingParallelMatchesSequential(t *testing.T) {
	// The same module graph under the gated engine at one worker and at
	// several worker counts must tick the same modules the same number
	// of times and consume identical values.
	build := func(workers int) (*Engine, []*gatedMod, []*Wire[int]) {
		e := NewEngine(workers, true)
		mods := make([]*gatedMod, 8)
		wires := make([]*Wire[int], 8)
		for i := range mods {
			wires[i] = NewWire[int](fmt.Sprintf("w%d", i))
			mods[i] = newGatedMod(fmt.Sprintf("m%d", i), wires[i])
			g := e.NewGate(mods[i])
			wires[i].SetWaker(g)
			shard := i * workers / len(mods)
			e.Connect(shard, wires[i])
			e.Register(shard, mods[i], g)
		}
		return e, mods, wires
	}
	type obs struct {
		ticks int64
		got   []int
	}
	run := func(workers int) []obs {
		e, mods, wires := build(workers)
		for cycle := int64(0); cycle < 20; cycle++ {
			// Deterministic sparse stimulus: module i gets a value on
			// cycles where (cycle+i)%7 == 0.
			for i, w := range wires {
				if (cycle+int64(i))%7 == 0 {
					if err := w.Send(i % 3); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]obs, len(mods))
		for i, m := range mods {
			out[i] = obs{ticks: m.ticks, got: m.got}
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 7} {
		got := run(workers)
		for i := range want {
			if want[i].ticks != got[i].ticks {
				t.Errorf("workers=%d: module %d ticked %d times, want %d", workers, i, got[i].ticks, want[i].ticks)
			}
			if fmt.Sprint(want[i].got) != fmt.Sprint(got[i].got) {
				t.Errorf("workers=%d: module %d consumed %v, want %v", workers, i, got[i].got, want[i].got)
			}
		}
	}
}

// stagedMod leaves work staged at the end of its first Tick and finishes
// it in TickOrdered, like a router's deferred ring updates.
type stagedMod struct {
	testMod
	staged bool
}

func (m *stagedMod) Tick(cycle int64) error {
	m.staged = m.ticks == 0
	return m.testMod.Tick(cycle)
}

func (m *stagedMod) TickOrdered(cycle int64) error {
	m.staged = false
	return nil
}

func (m *stagedMod) Quiescent() bool { return !m.staged }

// TestGatingOrderedPhaseSleeps: a module whose pending work finishes in
// the ordered phase sleeps right after it, not after one more idle tick.
func TestGatingOrderedPhaseSleeps(t *testing.T) {
	e := NewEngine(1, true)
	m := &stagedMod{testMod: *newTestMod("staged")}
	g := e.NewGate(m)
	e.Register(0, m, g)
	e.RegisterOrdered(m, g)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if m.ticks != 1 {
		t.Errorf("module ticked %d times, want 1", m.ticks)
	}
}

func TestGatingDisabledNewGateReturnsNil(t *testing.T) {
	e := NewEngine(1, false)
	m := newGatedMod("m", nil)
	if g := e.NewGate(m); g != nil {
		t.Fatal("NewGate on an ungated engine must return nil")
	}
	// Nil gates degrade to always-tick registration.
	e.Register(0, m, nil)
	var nilGate *Gate
	nilGate.Wake() // must not panic
	if err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	if m.ticks != 4 {
		t.Errorf("nil-gated module ticked %d times, want 4", m.ticks)
	}
}
