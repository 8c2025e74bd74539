package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"orion"
)

// report is the JSON object a run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run and perLayer those of a
// traced run, with their units. BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"sim_cycles_per_s": "cycles/s",
	"points_per_s":     "1/s",
	"op_ms_p50":        "ms",
	"setup_s":          "s",
}

var perLayer = map[string]string{
	"core.build_ms":               "ms",
	"core.step_ns_per_node_cycle": "ns",
	"core.step_ns_per_event":      "ns",
	"core.chunk_ms_p50":           "ms",
	"core.chunk_ms_p90":           "ms",
	"core.finish_ms":              "ms",
	"core.workers":                "count",
	"power.events":                "count",
	"power.events_per_node_cycle": "1/node-cycle",
	"point.ms_p50":                "ms",
	"point.ms_max":                "ms",
	"point.self_ms_p50":           "ms",
	"sweep.busy_ratio":            "ratio",
	"serve.cache_hit_ratio":       "ratio",
	"serve.shed":                  "count",
	"remote.attempts_per_request": "ratio",
	"journal.bytes_per_point":     "B",
	"runtime.peak_rss_mb":         "MB",
	"runtime.alloc_mb":            "MB",
	"runtime.gc_cycles":           "count",
	"runtime.gc_pause_ms":         "ms",
	"trace.overhead_pct":          "%",
}

// A run sets up at least setupReps times and for at least setupSeconds;
// setup_s is the median. Cheap set-ups repeat many times, so that their
// median is steady.
const (
	setupReps    = 9
	setupSeconds = 0.5
)

type runOptions struct {
	params
	seconds float64
	trace   bool
}

// outcome is what a run of a workload produced.
type outcome struct {
	report
	// spans and layers are a traced run's spans and every per-layer
	// metric, including those only one workload has.
	spans  []span
	layers map[string]float64
}

// runWorkload sets the workload up, warms it up, runs its timed or
// traced phase and checks its first op.
func runWorkload(ctx context.Context, name string, o runOptions) (*outcome, error) {
	if o.trace {
		o.tr = newTracer()
	}
	w, err := newWorkload(name, o.params)
	if err != nil {
		return nil, err
	}
	setups, err := setUp(w, o.quick)
	if err != nil {
		return nil, fmt.Errorf("bench: %s set-up: %w", name, err)
	}
	if err := w.start(); err != nil {
		return nil, fmt.Errorf("bench: %s start: %w", name, err)
	}
	chk := newChecker()
	first, firstRes := warmUp(ctx, w, chk)
	var (
		phase  phaseStats
		layers map[string]float64
	)
	if o.trace {
		layers = tracedPhase(ctx, w, chk, o)
		// Read before the check, whose reference runs are not the workload.
		layers["runtime.peak_rss_mb"] = peakRSSMB()
	} else {
		phase = timedPhase(ctx, w, chk, o.seconds)
	}
	err = checkFirst(ctx, chk, name, o.params, first, firstRes)
	if stopErr := w.stop(); stopErr != nil {
		chk.check(false, "%s stop: %v", name, stopErr)
	}
	if err != nil {
		return nil, err
	}
	out := &outcome{report: report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}}
	if o.trace {
		for n, unit := range perLayer {
			out.Metrics[n] = metric{layers[n], unit}
		}
		out.spans, out.layers = o.tr.recorded(), layers
		return out, nil
	}
	wall := phase.wall.Seconds()
	for n, v := range map[string]float64{
		"sim_cycles_per_s": float64(phase.cycles) / wall,
		"points_per_s":     float64(phase.points) / wall,
		"op_ms_p50":        nearestRank(phase.latMs, 50),
		"setup_s":          median(setups),
	} {
		out.Metrics[n] = metric{v, endToEnd[n]}
	}
	return out, nil
}

// setUp repeats the workload's set-up, each time from a collected heap,
// and returns how long each took in seconds.
func setUp(w workload, quick bool) ([]float64, error) {
	reps, least := setupReps, setupSeconds
	if quick {
		reps, least = 3, 0
	}
	var times []float64
	for total := 0.0; len(times) < reps || total < least; {
		runtime.GC()
		start := time.Now()
		undo, err := w.setUp()
		d := time.Since(start).Seconds()
		if err == nil && undo != nil {
			err = undo()
		}
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		total += d
	}
	return times, nil
}

// warmUp runs the workload's untimed warm-up ops and returns the first
// with its results.
func warmUp(ctx context.Context, w workload, chk *checker) (op, []*orion.Result) {
	warm := w.warmUp()
	if warm == nil {
		warm = []op{w.next(0, 0)}
	}
	var first []*orion.Result
	for i, wo := range warm {
		res, err := runOp(ctx, wo, nil)
		chk.observe(wo.key, res, err)
		if i == 0 {
			first = res
		}
	}
	return warm[0], first
}

// runOp runs one op inside its span.
func runOp(ctx context.Context, o op, tr *tracer) ([]*orion.Result, error) {
	name := o.span
	if name == "" {
		name = spanOp
	}
	s := tr.begin(name, 0)
	s.Workers = o.workers
	res, err := o.run(ctx, tr, s.ID)
	s.Points = int64(len(res))
	tr.end(s)
	return res, err
}

// loop runs body for each client's ops back to back until seconds have
// passed and body has returned true, and returns the wall time until the
// last op ended.
func loop(clients int, seconds float64, body func(c, i int) (mayEnd bool)) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !body(c, i) || time.Now().Before(deadline); i++ {
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

type phaseStats struct {
	// wall is the phase's duration less the heap collections between
	// batch jobs.
	wall   time.Duration
	latMs  []float64
	points int
	cycles int64
}

// timedPhase runs the untraced ops that give the end-to-end metrics.
func timedPhase(ctx context.Context, w workload, chk *checker, seconds float64) phaseStats {
	var (
		mu      sync.Mutex
		p       phaseStats
		settled time.Duration
	)
	wall := loop(w.clients(), seconds, func(c, i int) bool {
		o := w.next(c, i)
		s := settle(o)
		start := time.Now()
		res, err := runOp(ctx, o, nil)
		d := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		settled += s
		if chk.observe(o.key, res, err) {
			p.latMs = append(p.latMs, float64(d)/1e6)
			p.points += len(res)
			for _, r := range res {
				p.cycles += r.TotalCycles
			}
		}
		return !o.midList
	})
	p.wall = wall - settled
	return p
}

// settle collects the heap before a batch job, so that each job starts
// from the heap a fresh process would give it, and returns the time that
// took. Without it, how much garbage earlier jobs left decides when the
// collector interrupts a job, and two-worker runs vary by a fifth.
func settle(o op) time.Duration {
	if o.request {
		return 0
	}
	start := time.Now()
	runtime.GC()
	return time.Since(start)
}

// tracedPhase times each op traced and untraced: a batch op runs both
// ways back to back, in alternating order; a request, whose repeat would
// hit the cache, alternates between the two ways instead. It then runs
// the workload's epilogue and derives the per-layer metrics.
func tracedPhase(ctx context.Context, w workload, chk *checker, o runOptions) map[string]float64 {
	var (
		mu                 sync.Mutex
		traced, untraced   float64
		nTraced, nUntraced int
	)
	timed := func(op op, tr *tracer) float64 {
		settle(op)
		start := time.Now()
		res, err := runOp(ctx, op, tr)
		d := time.Since(start).Seconds()
		chk.observe(op.key, res, err)
		return d
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.mark()
	loop(w.clients(), o.seconds, func(c, i int) bool {
		op := w.next(c, i)
		var t, u float64
		var nt, nu int
		switch {
		case op.request && i%2 == 0:
			t, nt = timed(op, o.tr), 1
		case op.request:
			u, nu = timed(op, nil), 1
		case i%2 == 0:
			t, u, nt, nu = timed(op, o.tr), timed(op, nil), 1, 1
		default:
			u, t, nu, nt = timed(op, nil), timed(op, o.tr), 1, 1
		}
		if op.alsoTraced != nil {
			timed(*op.alsoTraced, o.tr)
		}
		mu.Lock()
		defer mu.Unlock()
		traced, untraced = traced+t, untraced+u
		nTraced, nUntraced = nTraced+nt, nUntraced+nu
		return !op.midList
	})
	for _, e := range w.epilogue() {
		res, err := runOp(ctx, e, o.tr)
		chk.observe(e.key, res, err)
	}
	runtime.ReadMemStats(&after)

	m := layerMetrics(o.tr.recorded())
	for k, v := range w.layerCounts() {
		m[k] = v
	}
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if nTraced > 0 && nUntraced > 0 && untraced > 0 {
		m["trace.overhead_pct"] = 100 * ((traced/float64(nTraced))/(untraced/float64(nUntraced)) - 1)
	}
	return m
}

// checkFirst checks the first op's results: against golden.json at
// seed 1 in the full configuration, and against a re-run on the
// reference paths otherwise.
func checkFirst(ctx context.Context, chk *checker, name string, p params, first op, got []*orion.Result) error {
	if p.seed == 1 && !p.quick {
		golden, err := loadGolden()
		if err != nil {
			return err
		}
		want, d := golden[name], digest(got)
		chk.check(want == d, "%s: first op digest %s, golden.json has %q", name, d, want)
		return nil
	}
	ref, err := first.reference(ctx)
	if err != nil {
		chk.check(false, "%s: reference run: %v", name, err)
		return nil
	}
	same, err := sameResults(got, ref)
	if err != nil {
		return err
	}
	chk.check(same, "%s: first op differs from its run on the reference paths", name)
	return nil
}

// peakRSSMB is the process's resident-set high-water mark so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
