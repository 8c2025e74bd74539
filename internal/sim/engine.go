package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
)

// Module is a hardware block with per-cycle behaviour. Modules read values
// that wires delivered this cycle (sent last cycle) and send new values for
// next cycle, so tick order between modules does not affect results.
type Module interface {
	// Name identifies the module in diagnostics.
	Name() string
	// Tick advances the module by one cycle.
	Tick(cycle int64) error
}

// OrderedTicker is work that runs after every shard's tick phase, on the
// caller's goroutine, in RegisterOrdered order. A module whose cycle is
// split in two registers with both Register and RegisterOrdered, and
// keeps in TickOrdered the (small) part of its cycle that must observe
// other modules' same-cycle effects in a defined order. A module whose
// whole cycle touches state shared across shards (a sink, recording
// into network-wide statistics) registers with RegisterOrdered alone.
type OrderedTicker interface {
	// Name identifies the module in diagnostics.
	Name() string
	// TickOrdered runs the module's ordered sub-phase for the cycle.
	TickOrdered(cycle int64) error
}

// Engine drives a set of modules and wires cycle by cycle. Modules are
// sharded statically across workers; worker 0 is the goroutine calling
// Step, so a one-worker engine runs every cycle on the caller with no
// goroutine and no barrier. Each Step runs four phases:
//
//  1. tick — every shard's modules tick in registration order, one
//     worker per shard;
//  2. ordered — RegisterOrdered modules run TickOrdered on the caller,
//     in registration order, for the few sub-stages and modules that
//     touch state shared between modules;
//  3. latch — each worker latches the dirty wires of its own shard
//     (wires join their producer's shard in Connect);
//  4. join — the caller reports the cycle's latch errors in connection
//     order.
//
// Determinism: shard assignment is static and value-free (no scheduling
// decision ever feeds back into simulation state), each module is ticked
// by exactly one worker, and the first error of a cycle is the failing
// module with the lowest registration index — so results and errors are
// bit-identical at every worker count. See DESIGN.md "Parallel
// execution".
type Engine struct {
	cycle int64
	pool  *pool

	// ordered is the ordered phase. nextIdx numbers registrations
	// globally so a cycle's first error is chosen deterministically;
	// latchSeq numbers connections globally so latch errors sort into
	// connection order regardless of which shard latched them.
	ordered   []orderedEntry
	nextIdx   int
	latchSeq  int
	latchErrs []seqError

	// Activity gating (see gate.go). gateWords holds one shared atomic
	// word per 64 gates for the wake bitmap.
	gating    bool
	gates     []*Gate
	gateWords []*atomic.Uint64
}

// shardModule pairs a module with its global registration index and its
// activity gate (nil when ungated).
type shardModule struct {
	m   Module
	idx int
	g   *Gate
}

// orderedEntry pairs an ordered-phase module with its activity gate (nil
// when ungated).
type orderedEntry struct {
	m OrderedTicker
	g *Gate
}

// NewEngine returns an engine with the given number of tick workers
// (values below 1 mean 1). With gating, modules registered with a gate
// are skipped while quiescent (see gate.go); without it NewGate returns
// nil and every module ticks every cycle.
func NewEngine(workers int, gating bool) *Engine {
	return &Engine{pool: newPool(max(workers, 1)), gating: gating}
}

// Cycle returns the current cycle number (the cycle the next Step will
// execute).
func (e *Engine) Cycle() int64 { return e.cycle }

// Register adds a module to shard's tick phase, after the shard's
// earlier registrations. shard must be in [0, workers); the caller owns
// the sharding policy and must ensure no two shards share mutable state.
// A nil gate ticks the module every cycle.
func (e *Engine) Register(shard int, m Module, g *Gate) {
	p := e.pool
	p.shards[shard] = append(p.shards[shard], shardModule{m: m, idx: e.nextIdx, g: g})
	e.nextIdx++
}

// RegisterOrdered adds a module to the ordered phase: its TickOrdered
// runs on the caller after every shard's tick phase, in RegisterOrdered
// call order. The gate may be the one the module ticks under: the
// Quiescent contract covers TickOrdered, so a sleeping module's ordered
// sub-phase is skipped along with its Tick. A module registered only
// here gets a gate of its own and sleeps between the wakes its input
// wires raise.
func (e *Engine) RegisterOrdered(m OrderedTicker, g *Gate) {
	e.ordered = append(e.ordered, orderedEntry{m: m, g: g})
}

// Connect adds a wire to shard's latch phase. The shard must be the one
// whose modules send on the wire (the producer side), so dirty-list
// enlistment stays single-writer.
func (e *Engine) Connect(shard int, w Latchable) {
	t := e.pool.trackers[shard]
	w.bindTracker(t, e.latchSeq)
	t.bound++
	e.latchSeq++
}

// Step executes one cycle. A module panic is recovered into an error
// naming the module and cycle, so one corrupted module aborts the run
// with a diagnostic instead of tearing down the process (or a whole
// parameter sweep).
func (e *Engine) Step() error {
	p := e.pool
	if len(p.shards) > 1 && !p.started {
		p.start()
		// Stop the pool's goroutines when the engine is collected. The
		// pool holds no pointer back to the engine, so unreachability of
		// the engine implies the pool is only reachable from here.
		runtime.SetFinalizer(e, func(e *Engine) { e.pool.shutdown() })
	}
	// Drain wake bits into awake flags before releasing the workers:
	// the caller is the only goroutine running here, so the drain races
	// nothing, and the epoch barrier publishes the flags to the workers.
	if e.gating {
		e.drainWakes()
	}
	if err := p.runPhase(phaseTick, e.cycle); err != nil {
		return err
	}
	for _, oe := range e.ordered {
		// A gate put to sleep during this cycle's tick phase is safe to
		// skip here too: Quiescent covers TickOrdered, and the tick-phase
		// barrier publishes the workers' awake writes.
		if oe.g != nil && !oe.g.awake {
			continue
		}
		if err := tickOrderedModule(oe.m, e.cycle); err != nil {
			return err
		}
		// Work the ordered sub-phase finished (a router's staged ring
		// updates) kept the module awake through the tick phase; let it
		// sleep now rather than tick idle next cycle. A module ticked
		// only here (a sink) sleeps the same way. The workers are parked,
		// so the write races nothing.
		if oe.g != nil && oe.g.q.Quiescent() {
			oe.g.awake = false
		}
	}
	// Ordered-phase modules may have sent on any shard's wires
	// (enlisting them on that shard's tracker) — safe, the workers are
	// parked between phases.
	_ = p.runPhase(phaseLatch, e.cycle)
	err := e.finishLatch()
	e.cycle++
	return err
}

// finishLatch joins every tracker's latch errors in connection order,
// identical at every worker count. The happy path (no errors) is
// allocation-free.
func (e *Engine) finishLatch() error {
	errs := e.latchErrs[:0]
	for _, t := range e.pool.trackers {
		errs = append(errs, t.errs...)
	}
	e.latchErrs = errs[:0]
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].seq < errs[j].seq })
	wrapped := make([]error, len(errs))
	for i, se := range errs {
		wrapped[i] = fmt.Errorf("sim: cycle %d: %w", e.cycle, se.err)
	}
	return errors.Join(wrapped...)
}

// Run executes n cycles, stopping at the first error.
func (e *Engine) Run(n int64) error {
	for i := int64(0); i < n; i++ {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// tickModule runs one module's Tick with panic recovery.
func tickModule(m Module, cycle int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: cycle %d: module %s: panic: %v", cycle, m.Name(), r)
		}
	}()
	if err := m.Tick(cycle); err != nil {
		return fmt.Errorf("sim: cycle %d: module %s: %w", cycle, m.Name(), err)
	}
	return nil
}

// tickOrderedModule runs one module's ordered sub-phase with panic
// recovery.
func tickOrderedModule(m OrderedTicker, cycle int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: cycle %d: module %s: ordered phase: panic: %v", cycle, m.Name(), r)
		}
	}()
	if err := m.TickOrdered(cycle); err != nil {
		return fmt.Errorf("sim: cycle %d: module %s: ordered phase: %w", cycle, m.Name(), err)
	}
	return nil
}
