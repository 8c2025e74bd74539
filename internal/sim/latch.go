package sim

// Dirty-wire latching. A wire whose cur and next slots are both empty
// latches as a pure no-op, and on a large fabric at moderate load the
// overwhelming majority of wires are idle in any given cycle — a 1024-node
// mesh has ~11k wires but only a few hundred flit/credit sends per cycle.
// Instead of latching every connected wire every cycle, the engine keeps
// per-shard dirty lists: Wire.Send enlists the wire with its tracker, and
// a latched wire stays enlisted only while it still holds an unconsumed
// value (so drop accounting and strict-wire diagnostics fire exactly as
// an every-cycle latch would). Each worker owns the tracker of the wires
// its shard's modules send on, making the latch phase itself parallel.

// seqError is a latch error tagged with the wire's connection sequence,
// so errors from concurrently-latched shards can be reassembled into
// connection order.
type seqError struct {
	seq int
	err error
}

// latchTracker is one shard's dirty list. It is written (enlist) only by
// the shard's worker during the tick phase — or by the caller in the
// ordered phase, while the other workers are parked — and drained
// (latchAll) only by the shard's worker during the latch phase; the
// pool's epoch barrier orders the two.
type latchTracker struct {
	// bound counts wires bound to this tracker; the dirty list is sized
	// to it on first use so steady-state enlisting never allocates.
	bound int
	dirty []Latchable
	// errs holds the latch errors of the most recent latchAll, for the
	// caller to collect after the barrier. Empty on the happy path.
	errs []seqError
}

// enlist adds a wire to the dirty list. The wire guarantees it is not
// already on it (the armed flag).
func (t *latchTracker) enlist(w Latchable) {
	if t.dirty == nil && t.bound > 0 {
		t.dirty = make([]Latchable, 0, t.bound)
	}
	t.dirty = append(t.dirty, w)
}

// latchAll latches every dirty wire, compacting the list down to the
// wires that still hold an unconsumed value. Errors are collected into
// t.errs; the happy path is allocation-free.
func (t *latchTracker) latchAll() {
	t.errs = t.errs[:0]
	k := 0
	for _, w := range t.dirty {
		still, seq, err := w.latchArmed()
		if err != nil {
			t.errs = append(t.errs, seqError{seq: seq, err: err})
		}
		if still {
			t.dirty[k] = w
			k++
		}
	}
	for i := k; i < len(t.dirty); i++ {
		t.dirty[i] = nil
	}
	t.dirty = t.dirty[:k]
}
