package sim

import (
	"errors"
	"strings"
	"testing"
)

// testMod is a minimal module: it counts its ticks and can be armed to
// fail or panic at a chosen cycle.
type testMod struct {
	name    string
	ticks   int64
	last    int64
	failAt  int64
	failErr error
	panicAt int64
}

func newTestMod(name string) *testMod {
	return &testMod{name: name, failAt: -1, panicAt: -1, last: -1}
}

func (m *testMod) Name() string { return m.name }

func (m *testMod) Tick(cycle int64) error {
	m.ticks++
	m.last = cycle
	if m.panicAt >= 0 && cycle == m.panicAt {
		panic("armed")
	}
	if m.failAt >= 0 && cycle == m.failAt {
		return m.failErr
	}
	return nil
}

// orderedMod records the order in which TickOrdered calls interleave with
// the tick phase, via a log owned by the calling goroutine.
type orderedMod struct {
	testMod
	ordered int64
	log     *[]string
}

func (m *orderedMod) TickOrdered(cycle int64) error {
	m.ordered++
	*m.log = append(*m.log, m.name)
	return nil
}

func TestParallelStepTicksEveryModuleOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		e := NewEngine(workers, false)
		mods := make([]*testMod, 16)
		for i := range mods {
			mods[i] = newTestMod("m")
			e.Register(i*workers/len(mods), mods[i], nil)
		}
		const cycles = 50
		for i := 0; i < cycles; i++ {
			if err := e.Step(); err != nil {
				t.Fatalf("workers=%d: step: %v", workers, err)
			}
		}
		for i, m := range mods {
			if m.ticks != cycles || m.last != cycles-1 {
				t.Fatalf("workers=%d: module %d ticked %d times (last cycle %d), want %d",
					workers, i, m.ticks, m.last, cycles)
			}
		}
		if e.Cycle() != cycles {
			t.Fatalf("workers=%d: cycle = %d, want %d", workers, e.Cycle(), cycles)
		}
	}
}

func TestParallelOrderedPhaseRunsInRegistrationOrder(t *testing.T) {
	e := NewEngine(4, false)
	var log []string
	names := []string{"a", "b", "c", "d", "e"}
	for i, name := range names {
		m := &orderedMod{log: &log}
		m.name = name
		m.failAt, m.panicAt = -1, -1
		e.Register(i%4, m, nil)
		e.RegisterOrdered(m, nil)
	}
	const cycles = 20
	for i := 0; i < cycles; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(log) != cycles*len(names) {
		t.Fatalf("ordered phase ran %d times, want %d", len(log), cycles*len(names))
	}
	for c := 0; c < cycles; c++ {
		got := strings.Join(log[c*len(names):(c+1)*len(names)], "")
		if got != "abcde" {
			t.Fatalf("cycle %d ordered phase order %q, want abcde", c, got)
		}
	}
}

// TestParallelFirstErrorDeterministic arms failures on three shards in the
// same cycle and checks the reported error is always the one from the
// lowest registration index — the module a one-worker engine fails on
// first — across repeated runs.
func TestParallelFirstErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		e := NewEngine(4, false)
		want := errors.New("boom-first")
		for i := 0; i < 8; i++ {
			m := newTestMod("m")
			if i == 2 || i == 5 || i == 7 {
				m.failAt = 3
				m.failErr = errors.New("boom-late")
			}
			if i == 1 {
				m.failAt = 3
				m.failErr = want
			}
			e.Register(i/2, m, nil)
		}
		var err error
		for i := 0; i < 10 && err == nil; i++ {
			err = e.Step()
		}
		if !errors.Is(err, want) {
			t.Fatalf("trial %d: got error %v, want the lowest-index module's %v", trial, err, want)
		}
	}
}

func TestParallelPanicRecovered(t *testing.T) {
	e := NewEngine(2, false)
	m := newTestMod("victim")
	m.panicAt = 2
	e.Register(0, m, nil)
	e.Register(1, newTestMod("bystander"), nil)
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		err = e.Step()
	}
	if err == nil || !strings.Contains(err.Error(), "module victim: panic") {
		t.Fatalf("parallel panic not recovered into a diagnostic: %v", err)
	}
}

// TestParallelStepZeroAlloc pins the steady-state parallel Step at zero
// heap allocations per cycle: the barrier is atomics only and error
// slots are preallocated.
func TestParallelStepZeroAlloc(t *testing.T) {
	e := NewEngine(4, false)
	var log []string
	for i := 0; i < 8; i++ {
		m := &orderedMod{log: &log}
		m.name = "m"
		m.failAt, m.panicAt = -1, -1
		e.Register(i/2, m, nil)
		e.RegisterOrdered(m, nil)
	}
	for i := 0; i < 10; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		log = log[:0]
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		log = log[:0]
	})
	if allocs != 0 {
		t.Errorf("parallel engine step allocated %.2f objects per cycle in steady state, want 0", allocs)
	}
}

// TestOneWorkerEngineRunsOnCaller checks that a one-worker engine (and
// a worker count below 1, which means one) steps shard 0 on the calling
// goroutine and never starts the pool's goroutines.
func TestOneWorkerEngineRunsOnCaller(t *testing.T) {
	for _, workers := range []int{0, 1} {
		e := NewEngine(workers, false)
		m := newTestMod("m")
		e.Register(0, m, nil)
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		if m.ticks != 3 {
			t.Fatalf("workers=%d: module ticked %d times, want 3", workers, m.ticks)
		}
		if len(e.pool.shards) != 1 || e.pool.started {
			t.Fatalf("workers=%d: %d shards, goroutines started %v; want 1 shard and none",
				workers, len(e.pool.shards), e.pool.started)
		}
	}
}
