package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the engine's worker pool. The latching wire discipline
// (see Module) makes every module's Tick within a cycle data-independent:
// a tick reads only values wires delivered at the last cycle boundary, so
// ticks can run concurrently as long as each module's state is touched by
// exactly one goroutine. The engine therefore shards modules statically
// across workers: worker 0 is the goroutine calling Step, and workers
// 1…N−1 are persistent goroutines (no per-cycle spawn) released behind a
// lightweight epoch/counter barrier. A one-worker pool has no goroutine
// and no barrier.

// Worker phases within one cycle: tick the shard's modules, then latch
// the shard's dirty wires. The caller publishes the phase under p.mu
// before bumping the epoch, so a worker that observes the new epoch also
// observes the phase (the epoch atomics carry the happens-before).
const (
	phaseTick = iota
	phaseLatch
)

// shardError is a worker's first module error of the current cycle.
type shardError struct {
	idx int
	err error
}

// pool holds the shards and runs each phase across them. It deliberately
// holds no reference to the Engine, so the engine's finalizer (which
// stops the pool's goroutines) can run.
type pool struct {
	shards [][]shardModule

	// trackers[w] is worker w's dirty-wire list (see latch.go): enlisted
	// during w's tick phase, drained by w in the latch phase.
	trackers []*latchTracker

	// errs[w] is written only by worker w during a phase and read by the
	// caller after the barrier.
	errs []shardError

	// epoch counts issued phases and done counts goroutine completions;
	// the caller publishes work by bumping epoch and waits for done to
	// reach epoch*(workers-1). Both are monotonic, so a stale wakeup can
	// never re-run a phase. The seq-cst atomics carry the happens-before
	// edges between the caller and the goroutines in both directions.
	epoch atomic.Int64
	done  atomic.Int64
	cycle atomic.Int64
	stop  atomic.Bool

	// mu/cond park goroutines that spun without finding new work, so an
	// engine that is built but idle (or stepped slowly) costs nothing.
	mu   sync.Mutex
	cond *sync.Cond

	// phase is written by the caller under mu before each epoch bump and
	// read by the goroutines after observing that bump.
	phase int

	started bool
}

func newPool(workers int) *pool {
	p := &pool{
		shards:   make([][]shardModule, workers),
		trackers: make([]*latchTracker, workers),
		errs:     make([]shardError, workers),
	}
	for i := range p.trackers {
		p.trackers[i] = &latchTracker{}
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// start launches the goroutines of workers 1…N−1. Called lazily at the
// first Step so building a network never spawns goroutines it may not
// use.
func (p *pool) start() {
	p.started = true
	for w := 1; w < len(p.shards); w++ {
		go p.worker(w)
	}
}

// shutdown wakes and terminates every worker goroutine. Idempotent.
func (p *pool) shutdown() {
	p.mu.Lock()
	p.stop.Store(true)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// worker is the goroutine of shard w ≥ 1: wait for the next epoch, run
// the published phase on the shard, and report completion.
func (p *pool) worker(w int) {
	var seen int64
	for {
		target := seen + 1
		if !p.await(target) {
			return
		}
		seen = target
		p.work(w, p.phase, p.cycle.Load())
		p.done.Add(1)
	}
}

// work runs one phase of shard w: tick its modules in registration order,
// or latch its dirty wires. Latch errors stay in the tracker, tagged with
// connection sequence, for the engine's finishLatch.
func (p *pool) work(w, phase int, cycle int64) {
	p.errs[w] = shardError{}
	if phase == phaseLatch {
		p.trackers[w].latchAll()
		return
	}
	for _, sm := range p.shards[w] {
		// Skip sleeping modules. awake is owned by this worker during
		// the tick phase: the caller only writes it between cycles, while
		// every goroutine is parked.
		if sm.g != nil && !sm.g.awake {
			continue
		}
		if err := tickModule(sm.m, cycle); err != nil {
			// Record the first error and stop the shard: no module ticks
			// after a failing one.
			p.errs[w] = shardError{idx: sm.idx, err: err}
			return
		}
		if sm.g != nil && sm.g.q.Quiescent() {
			sm.g.awake = false
		}
	}
}

// await blocks until the epoch reaches target, spinning briefly (phases
// are issued back to back in a running simulation) before parking on the
// condition variable. It returns false when the pool is shutting down.
func (p *pool) await(target int64) bool {
	for i := 0; i < 128; i++ {
		if p.stop.Load() {
			return false
		}
		if p.epoch.Load() >= target {
			return true
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	for p.epoch.Load() < target && !p.stop.Load() {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return !p.stop.Load()
}

// runPhase executes one phase on every shard — shard 0 on the calling
// goroutine, the rest on the pool's goroutines — and returns the
// deterministic first module error (the failing module with the lowest
// registration index; always nil for the latch phase, whose errors are
// collected from the trackers by finishLatch). Allocation-free.
func (p *pool) runPhase(phase int, cycle int64) error {
	others := int64(len(p.shards) - 1)
	if others > 0 {
		p.cycle.Store(cycle)
		p.mu.Lock()
		p.phase = phase
		p.epoch.Add(1)
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	p.work(0, phase, cycle)
	if others > 0 {
		target := p.epoch.Load() * others
		for p.done.Load() < target {
			runtime.Gosched()
		}
	}
	var first *shardError
	for w := range p.errs {
		se := &p.errs[w]
		if se.err != nil && (first == nil || se.idx < first.idx) {
			first = se
		}
	}
	if first != nil {
		return first.err
	}
	return nil
}
