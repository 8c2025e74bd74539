package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestWireOneCycleLatency(t *testing.T) {
	w := NewWire[int]("w")
	if err := w.Send(42); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := w.Peek(); ok {
		t.Fatal("value visible in the cycle it was sent")
	}
	if err := w.Latch(); err != nil {
		t.Fatalf("Latch: %v", err)
	}
	v, ok := w.Take()
	if !ok || v != 42 {
		t.Fatalf("Take = %d,%v; want 42,true", v, ok)
	}
	if _, ok := w.Take(); ok {
		t.Fatal("second Take should fail")
	}
}

func TestWireDoubleSend(t *testing.T) {
	w := NewWire[int]("w")
	if err := w.Send(1); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !w.Busy() {
		t.Error("Busy() should be true after Send")
	}
	if err := w.Send(2); err == nil {
		t.Fatal("double send should error")
	}
}

func TestWirePeekDoesNotConsume(t *testing.T) {
	w := NewWire[string]("w")
	if err := w.Send("x"); err != nil {
		t.Fatal(err)
	}
	if err := w.Latch(); err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Peek(); !ok || v != "x" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if v, ok := w.Take(); !ok || v != "x" {
		t.Fatalf("Take after Peek = %q,%v", v, ok)
	}
}

func TestStrictWireDetectsDroppedValue(t *testing.T) {
	w := NewWire[int]("data")
	if err := w.Send(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Latch(); err != nil {
		t.Fatal(err)
	}
	// Value 1 is now visible but never consumed.
	err := w.Latch()
	if err == nil {
		t.Fatal("strict wire should report unconsumed value")
	}
	if !strings.Contains(err.Error(), "data") {
		t.Errorf("error should name the wire: %v", err)
	}
	if w.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", w.Dropped())
	}
}

func TestLossyWireDropsSilently(t *testing.T) {
	w := NewLossyWire[int]("credits")
	if err := w.Send(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Latch(); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(2); err != nil {
		t.Fatal(err)
	}
	if err := w.Latch(); err != nil {
		t.Fatalf("lossy wire should not error: %v", err)
	}
	if w.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", w.Dropped())
	}
	if v, _ := w.Take(); v != 2 {
		t.Errorf("Take = %d, want 2", v)
	}
}

func TestBusCountsAndDispatch(t *testing.T) {
	var b Bus
	var got []EventType
	b.Subscribe(func(e *Event) { got = append(got, e.Type) })
	b.Subscribe(nil) // must be ignored
	for _, ty := range []EventType{EvBufferWrite, EvBufferRead, EvBufferWrite} {
		b.Begin(ty, 0, 0)
		b.Publish()
	}
	if len(got) != 3 || got[0] != EvBufferWrite || got[1] != EvBufferRead {
		t.Errorf("dispatch order wrong: %v", got)
	}
	if b.Count[EvBufferWrite] != 2 || b.Count[EvBufferRead] != 1 {
		t.Errorf("counts wrong: %v", b.Count)
	}
	if b.Total() != 3 {
		t.Errorf("Total = %d, want 3", b.Total())
	}
}

// TestBusBeginClearsPreviousEvent: the bus reuses one slot for every
// event, so a field the second publisher leaves unset must read as its
// default — zero, or -1 ("not applicable") for VC and Winner — not as
// whatever the first event left there.
func TestBusBeginClearsPreviousEvent(t *testing.T) {
	var b Bus
	var got []Event
	b.Subscribe(func(e *Event) { got = append(got, *e) })
	data := []uint64{0xfeed}
	e := b.Begin(EvCrossbarTraversal, 7, 3)
	e.Port, e.OutPort, e.VC, e.Stage = 1, 2, 1, StageOutput
	e.Data, e.ReqVector, e.Winner = data, 0b110, 2
	b.Publish()
	b.Begin(EvBufferRead, 8, 4).Port = 0
	b.Publish()
	if len(got) != 2 {
		t.Fatalf("listener saw %d events, want 2", len(got))
	}
	if want := (Event{Type: EvBufferRead, Cycle: 8, Node: 4, VC: -1, Winner: -1}); !reflect.DeepEqual(got[1], want) {
		t.Errorf("second event = %+v, want only %+v", got[1], want)
	}
}

func TestEventTypeString(t *testing.T) {
	for i := 0; i < NumEventTypes; i++ {
		s := EventType(i).String()
		if strings.HasPrefix(s, "EventType(") {
			t.Errorf("event type %d has no name", i)
		}
	}
	if EventType(99).String() != "EventType(99)" {
		t.Error("unknown event type should format numerically")
	}
}

// counterModule increments itself each tick and can inject an error.
type counterModule struct {
	n    int64
	fail error
}

func (c *counterModule) Name() string { return "counter" }
func (c *counterModule) Tick(cycle int64) error {
	c.n++
	return c.fail
}

func TestEngineStepOrderAndCycle(t *testing.T) {
	e := NewEngine(1, false)
	a := &counterModule{}
	b := &counterModule{}
	e.Register(0, a, nil)
	e.Register(0, b, nil)
	if err := e.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.n != 5 || b.n != 5 {
		t.Errorf("ticks = %d,%d; want 5,5", a.n, b.n)
	}
	if e.Cycle() != 5 {
		t.Errorf("Cycle = %d, want 5", e.Cycle())
	}
}

func TestEngineModuleError(t *testing.T) {
	e := NewEngine(1, false)
	boom := errors.New("boom")
	e.Register(0, &counterModule{fail: boom}, nil)
	err := e.Step()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Step error = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "counter") {
		t.Errorf("error should name the module: %v", err)
	}
}

func TestEngineLatchesWires(t *testing.T) {
	e := NewEngine(1, false)
	w := NewWire[int]("w")
	e.Connect(0, w)
	if err := w.Send(7); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if v, ok := w.Take(); !ok || v != 7 {
		t.Fatalf("wire not latched by engine: %d,%v", v, ok)
	}
}
