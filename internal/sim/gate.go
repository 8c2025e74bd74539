package sim

import (
	"math/bits"
	"sync/atomic"
)

// Activity gating (the active-set scheduler). Most sweep points run far
// below saturation, where almost every module's Tick is a provable no-op:
// a router with no buffered flits, no staged ring operations and no
// pending switch grants does nothing until a wire delivers it something.
// The engine therefore lets modules advertise quiescence and skips their
// ticks entirely, turning the cycle loop from O(modules) into O(active).
//
// The contract is conservative in exactly one direction: a module may
// only report Quiescent() == true when every future Tick (and
// TickOrdered) is a no-op absent new input. Ticking a quiescent module
// anyway is always harmless — the only hazard is skipping a tick that
// would have done work, so anything that re-activates a module must wake
// its gate:
//
//   - wire deliveries: every engine-connected wire gets a waker
//     (Wire.SetWaker) for its consuming module, so a Send — data, credit
//     or ejection — wakes the receiver for the cycle the value becomes
//     visible. Credit wires are lossy (an unconsumed credit is dropped at
//     latch), so waking their consumers is a correctness requirement, not
//     an optimisation;
//   - injection: the network wakes a source's gate when the generator
//     enqueues a packet for it, before the engine steps that cycle;
//   - faults: a router with a fault view never reports quiescent, so
//     fault windows on otherwise-idle links still open and close on
//     schedule.
//
// Wake-versus-sleep ordering makes lost wakes impossible: Wake sets a bit
// in a shared atomic word at any time, but the bit is only drained into
// the gate's awake flag by the caller at the start of a Step, while the
// other workers are parked (the pool's epoch/done atomics carry the
// happens-before). The owner clears awake only after a tick that ended
// quiescent, and clearing awake never touches the bitmap — so a wake
// raised in the same cycle a module goes to sleep is simply observed at
// the next Step.
//
// Bit-identity with the always-tick path follows from the contract: a
// skipped tick is one that would have read no wire values, published no
// events, drawn no random numbers and mutated no state, so event order,
// energy accumulation order and every snapshot word are unchanged. The
// always-tick path is kept (Config.AlwaysTick) as the reference to diff
// against.

// Gated is a Module that can advertise quiescence. Quiescent must return
// true only if Tick (and TickOrdered, for OrderedTickers) would be a
// no-op every cycle until the module receives new input through a channel
// that wakes its gate.
type Gated interface {
	Module
	// Quiescent reports whether the module has no pending work.
	Quiescent() bool
}

// Gate is one module's activity latch. The awake flag is owned by the
// goroutine that ticks the module (plus the caller during the
// between-cycles drain); the wake bit lives in a word shared with up to
// 63 other gates and may be set from any goroutine.
type Gate struct {
	q     interface{ Quiescent() bool }
	word  *atomic.Uint64
	mask  uint64
	awake bool
}

// Wake marks the gate's module as having pending input, to take effect at
// the next Step. Safe to call from any goroutine and on a nil gate (a
// no-op, so callers on ungated engines need no branches).
func (g *Gate) Wake() {
	if g == nil {
		return
	}
	// go.mod targets 1.22, which lacks atomic.Uint64.Or — CAS instead.
	// The fast path (bit already set) is a single load.
	w := g.word
	for {
		old := w.Load()
		if old&g.mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|g.mask) {
			return
		}
	}
}

// NewGate allocates a gate for the given module — a Gated module, or an
// OrderedTicker that advertises quiescence — initially awake. Returns nil
// on an ungated engine, which every consumer of a Gate tolerates.
func (e *Engine) NewGate(q interface{ Quiescent() bool }) *Gate {
	if !e.gating {
		return nil
	}
	id := len(e.gates)
	if id%64 == 0 {
		// One heap word per 64 gates; the words slice may grow, but the
		// words themselves never move, so gates can hold the pointer.
		e.gateWords = append(e.gateWords, new(atomic.Uint64))
	}
	g := &Gate{q: q, word: e.gateWords[id/64], mask: 1 << (id % 64), awake: true}
	e.gates = append(e.gates, g)
	return g
}

// drainWakes moves every raised wake bit into its gate's awake flag.
// Runs on the calling goroutine at the start of a Step, before any
// worker is released, so it is the only writer racing nothing: no wake
// can land between the load and the swap, and an idle word is only
// loaded, never written.
func (e *Engine) drainWakes() {
	for wi, w := range e.gateWords {
		if w.Load() == 0 {
			continue
		}
		raised := w.Swap(0)
		for raised != 0 {
			b := bits.TrailingZeros64(raised)
			e.gates[wi*64+b].awake = true
			raised &= raised - 1
		}
	}
}
