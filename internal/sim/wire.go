package sim

import "fmt"

// Latchable is a wire the engine commits between cycles (see Connect).
// Its unexported methods are the dirty-latch contract with the engine
// (latch.go): the wire enlists itself on Send and reports, at latch time,
// whether it must stay on the dirty list. Wire[T] is the implementation.
type Latchable interface {
	// Latch commits the value written this cycle so it becomes visible
	// next cycle. It reports an error if a previously delivered value was
	// never consumed and is about to be overwritten (a flow-control bug).
	Latch() error
	bindTracker(t *latchTracker, seq int)
	latchArmed() (still bool, seq int, err error)
}

// Wire is a typed port-to-port connection with exactly one cycle of
// latency, the LSE message-passing analog. At most one value may be sent
// per cycle; the value becomes visible to the receiver on the next cycle.
//
// Wires model the paper's single-cycle data and credit channels
// (Section 4.1: "propagation delay across data and credit channels is
// assumed to take a single cycle").
// Values are stored inline (value + validity flag) rather than behind
// pointers so that Send never allocates: a wire carries one flit per cycle
// on the simulation's hottest path.
type Wire[T any] struct {
	name    string
	cur     T
	next    T
	curOK   bool
	nextOK  bool
	strict  bool
	dropped int64

	// Dirty-latch tracking (engine-connected wires only; see latch.go).
	// A wire with neither a delivered nor a pending value latches as a
	// pure no-op, so the engine latches only wires on its dirty lists:
	// Send enlists the wire with its tracker, and it stays enlisted until
	// a latch leaves it empty. tracker is nil for standalone wires, which
	// latch exactly as before.
	tracker *latchTracker
	armed   bool
	seq     int

	// waker, when set, is the consuming module's activity gate: every
	// Send wakes the consumer for the cycle the value becomes visible
	// (see gate.go). Lossy wires drop unconsumed values at latch, so a
	// sleeping consumer missing a delivery would silently change
	// results — the waker is what makes gating exact.
	waker *Gate
}

// NewWire returns a strict wire: overwriting an unconsumed value is an
// error surfaced at Latch. Use NewLossyWire where values may legitimately
// be dropped.
func NewWire[T any](name string) *Wire[T] {
	return &Wire[T]{name: name, strict: true}
}

// NewLossyWire returns a wire that silently drops unconsumed values,
// counting them in Dropped.
func NewLossyWire[T any](name string) *Wire[T] {
	return &Wire[T]{name: name}
}

// Name returns the wire's diagnostic name.
func (w *Wire[T]) Name() string { return w.name }

// Send places a value on the wire for delivery next cycle. It reports an
// error if a value was already sent this cycle.
func (w *Wire[T]) Send(v T) error {
	if w.nextOK {
		return fmt.Errorf("sim: wire %q: double send in one cycle", w.name)
	}
	w.next = v
	w.nextOK = true
	if w.tracker != nil && !w.armed {
		w.armed = true
		w.tracker.enlist(w)
	}
	return nil
}

// SetWaker attaches the consuming module's activity gate: a latch that
// leaves a value visible wakes the gate for the delivery cycle. A nil
// gate (ungated engine) is accepted and costs one branch per dirty latch.
func (w *Wire[T]) SetWaker(g *Gate) { w.waker = g }

// Busy reports whether a value has already been sent this cycle.
func (w *Wire[T]) Busy() bool { return w.nextOK }

// Peek returns the value visible this cycle without consuming it.
func (w *Wire[T]) Peek() (T, bool) {
	if !w.curOK {
		var zero T
		return zero, false
	}
	return w.cur, true
}

// Take consumes and returns the value visible this cycle.
func (w *Wire[T]) Take() (T, bool) {
	if !w.curOK {
		var zero T
		return zero, false
	}
	v := w.cur
	var zero T
	w.cur = zero
	w.curOK = false
	return v, true
}

// Dropped returns the number of values lost on a lossy wire.
func (w *Wire[T]) Dropped() int64 { return w.dropped }

// Pending exposes the wire's latch state without consuming it: the value
// visible this cycle (cur) and the value sent this cycle awaiting latch
// (next). State capture uses it to record in-flight values at a cycle
// boundary, where next is always empty.
func (w *Wire[T]) Pending() (cur T, curOK bool, next T, nextOK bool) {
	return w.cur, w.curOK, w.next, w.nextOK
}

// bindTracker implements Latchable: the engine hands the wire the
// dirty list to enlist with on Send, and its connection sequence number
// (used to order latch errors deterministically across worker counts).
func (w *Wire[T]) bindTracker(t *latchTracker, seq int) {
	w.tracker = t
	w.seq = seq
}

// latchArmed implements Latchable: latch, then report whether the
// wire still holds an unconsumed value — in which case it must stay on
// the dirty list so the next latch can record the drop (or strict-wire
// error) exactly as an every-cycle latch would have.
func (w *Wire[T]) latchArmed() (still bool, seq int, err error) {
	err = w.Latch()
	if w.curOK {
		return true, w.seq, err
	}
	w.armed = false
	return false, w.seq, err
}

// Latch implements Latchable.
func (w *Wire[T]) Latch() error {
	var err error
	if w.curOK {
		w.dropped++
		if w.strict {
			err = fmt.Errorf("sim: wire %q: value %v not consumed before next delivery", w.name, w.cur)
		}
	}
	w.cur, w.curOK = w.next, w.nextOK
	var zero T
	w.next, w.nextOK = zero, false
	if w.curOK {
		// The consumer has a value to see next cycle — wake its gate.
		// Waking at latch time (not Send) puts the wake exactly one
		// drain before the delivery cycle no matter when during the
		// cycle the send happened, and re-raises it while an unconsumed
		// value lingers, mirroring what an always-tick consumer would
		// observe. Workers latch their shards concurrently, but Wake is
		// an atomic bit-set, safe from any goroutine.
		w.waker.Wake()
	}
	return err
}
