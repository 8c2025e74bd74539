package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"

	"orion"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"fig5-sweep", "fig5-runs", "mesh1k-busy", "mesh1k-idle", "sweep-journal", "serve-mixed"}

// params are the inputs every workload is built from.
type params struct {
	seed int64
	// quick shrinks every workload to a smoke-test size.
	quick bool
	// dir is a scratch directory for journals and caches.
	dir string
	// tr is the tracer of a traced run, nil otherwise. Ops get it per
	// call; it is here for what must be wired at start (a handler).
	tr *tracer
}

func newWorkload(name string, p params) (workload, error) {
	switch name {
	case "fig5-sweep":
		return &fig5Sweep{curves: fig5Grid(p)}, nil
	case "fig5-runs":
		return newFig5Runs(p), nil
	case "mesh1k-busy":
		return newMesh(p, 0.005), nil
	case "mesh1k-idle":
		return newMesh(p, 0.0003), nil
	case "sweep-journal":
		return newSweepJournal(p), nil
	case "serve-mixed":
		return newServeMixed(p), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

// op is one call of a workload's public entry point.
type op struct {
	// key names the op's inputs: ops with equal keys must return
	// bit-identical results.
	key string
	// span names the op's trace span; empty means spanOp.
	span string
	// workers is the number of points the op runs at once.
	workers int
	// run executes the op. tr is nil in an untraced run; parent is the
	// op's span.
	run func(ctx context.Context, tr *tracer, parent uint64) ([]*orion.Result, error)
	// reference runs the op's inputs on the reference paths.
	reference func(ctx context.Context) ([]*orion.Result, error)
	// alsoTraced is an op over the same inputs that a traced run times
	// after this one, to split this op's cost by layer.
	alsoTraced *op
	// midList marks an op that more ops of a fixed list follow: a timed
	// phase ends only after the list's last op, so every run measures
	// the same mix of inputs.
	midList bool
	// request marks a call to a long-lived service rather than a batch
	// job. A repeated request is answered from the service's cache, so a
	// traced run never times one twice; and the heap is not collected
	// before each request as it is before each batch job.
	request bool
}

// workload is one named set of inputs and the calls that drive them.
type workload interface {
	// setUp performs one repetition of the set-up whose median is
	// setup_s. undo, when not nil, releases what it set up, untimed.
	setUp() (undo func() error, err error)
	// start readies what the ops share; stop releases it.
	start() error
	stop() error
	// clients is the number of closed-loop callers.
	clients() int
	// warmUp returns the untimed ops run before the timed phase; the
	// first is the op whose results are checked against the golden
	// digest or the reference paths. Nil means client 0's first op.
	warmUp() []op
	// next returns client c's i-th op.
	next(c, i int) op
	// epilogue returns traced ops run after a traced phase.
	epilogue() []op
	// mark opens the window layerCounts reports on.
	mark()
	// layerCounts returns per-layer counters that no span carries.
	layerCounts() map[string]float64
}

// batch supplies the defaults of a single-caller batch workload.
type batch struct{}

func (batch) start() error                    { return nil }
func (batch) stop() error                     { return nil }
func (batch) clients() int                    { return 1 }
func (batch) warmUp() []op                    { return nil }
func (batch) epilogue() []op                  { return nil }
func (batch) mark()                           {}
func (batch) layerCounts() map[string]float64 { return nil }

// chunkCycles is the Sim.StepTo chunk a traced run steps by.
const chunkCycles = 100

func nodeCount(cfg orion.Config) int64 {
	return int64(cfg.Width) * int64(cfg.Height) * int64(max(cfg.Depth, 1)) * int64(max(cfg.Concentration, 1))
}

// runCore runs cfg as orion.Run does, split into the public calls it is
// made of so that each gets a span: orion.NewSim, Sim.StepTo in
// chunkCycles chunks, then Sim.RunContext.
func runCore(ctx context.Context, cfg orion.Config, tr *tracer, parent uint64) (*orion.Result, error) {
	nodes := nodeCount(cfg)
	b := tr.begin(spanBuild, parent)
	sim, err := orion.NewSim(cfg)
	if err != nil {
		return nil, err
	}
	b.Workers = sim.Workers()
	tr.end(b)
	for done := false; !done; {
		s := tr.begin(spanStep, parent)
		from := sim.Cycle()
		done, err = sim.StepTo(ctx, from+chunkCycles)
		s.Nodes, s.Cycles = nodes, sim.Cycle()-from
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	f := tr.begin(spanFinish, parent)
	res, err := sim.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	e := res.Events
	f.Nodes, f.Cycles = nodes, res.MeasuredCycles
	f.Events = e.BufferWrites + e.BufferReads + e.Arbitrations + e.VCAllocations +
		e.CrossbarTraversals + e.LinkTraversals + e.CentralBufferWrites + e.CentralBufferReads
	tr.end(f)
	return res, nil
}

// tracedPoint is one point span around runCore.
func tracedPoint(ctx context.Context, cfg orion.Config, tr *tracer, parent uint64) (*orion.Result, error) {
	p := tr.begin(spanPoint, parent)
	res, err := runCore(ctx, cfg, tr, p.ID)
	tr.end(p)
	return res, err
}

// tracedRunner is the PointRunner of a traced sweep: orion.RunPoint's
// execution (one tick worker unless the config asks for more) with
// every point split into spans.
func tracedRunner(tr *tracer, parent uint64) orion.PointRunner {
	return func(ctx context.Context, cfg orion.Config, rate float64) (*orion.Result, error) {
		cfg.Traffic.Rate = rate
		if cfg.Sim.Workers == 0 {
			cfg.Sim.Workers = 1
		}
		return tracedPoint(ctx, cfg, tr, parent)
	}
}

func one(res *orion.Result, err error) ([]*orion.Result, error) {
	if err != nil {
		return nil, err
	}
	return []*orion.Result{res}, nil
}

// buildAll builds each configuration's simulation and drops it.
func buildAll(cfgs []orion.Config) error {
	for _, cfg := range cfgs {
		if _, err := orion.NewSim(cfg); err != nil {
			return err
		}
	}
	return nil
}

// curve is one router configuration of the paper grid and its rates.
type curve struct {
	label string
	cfg   orion.Config
	rates []float64
}

// fig5Grid is the paper's evaluation grid: the four on-chip routers of
// Figure 5 on the 4×4 torus at 0.02–0.12, and the two chip-to-chip
// routers of Figure 7 at 0.02–0.08, all below saturation. That is 32
// points at the paper's protocol of 1,000 warm-up cycles and 10,000
// sample packets.
func fig5Grid(p params) []curve {
	onChip := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	chipToChip := []float64{0.02, 0.04, 0.06, 0.08}
	var out []curve
	add := func(label string, cfg orion.Config, rates []float64) {
		cfg.Traffic.Seed = p.seed
		if p.quick {
			cfg.Sim.WarmupCycles, cfg.Sim.SamplePackets = 100, 100
			rates = rates[:2]
		}
		out = append(out, curve{label, cfg, rates})
	}
	for _, c := range orion.Fig5Configs() {
		add(c.Label, orion.OnChip4x4(c.Router, 0), onChip)
	}
	add("XB", orion.ChipToChip4x4(orion.XB(), 0), chipToChip)
	add("CB", orion.ChipToChip4x4(orion.CB(), 0), chipToChip)
	return out
}

// gridPoints flattens the grid to one configuration per point.
func gridPoints(curves []curve) []orion.Config {
	var out []orion.Config
	for _, c := range curves {
		for _, r := range c.rates {
			cfg := c.cfg
			cfg.Traffic.Rate = r
			out = append(out, cfg)
		}
	}
	return out
}

// fig5Sweep regenerates the paper grid: one orion.SweepContext per
// curve, NumCPU points at once with one tick worker each. An op is the
// whole grid, so every op does the same work.
type fig5Sweep struct {
	batch
	curves []curve
}

func (w *fig5Sweep) setUp() (func() error, error) { return nil, buildAll(gridPoints(w.curves)) }

func (w *fig5Sweep) next(_, _ int) op {
	sweep := func(ctx context.Context, reference bool, tr *tracer, parent uint64) ([]*orion.Result, error) {
		var all []*orion.Result
		for _, c := range w.curves {
			var res []*orion.Result
			var err error
			switch {
			case reference:
				res, err = orion.SweepContext(ctx, referenceConfig(c.cfg), c.rates)
			case tr == nil:
				res, err = orion.SweepContext(ctx, c.cfg, c.rates)
			default:
				res, err = orion.SweepWithRunner(ctx, c.cfg, c.rates, tracedRunner(tr, parent), nil)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.label, err)
			}
			all = append(all, res...)
		}
		return all, nil
	}
	return op{
		key:     "grid",
		workers: runtime.NumCPU(),
		run: func(ctx context.Context, tr *tracer, parent uint64) ([]*orion.Result, error) {
			return sweep(ctx, false, tr, parent)
		},
		reference: func(ctx context.Context) ([]*orion.Result, error) {
			return sweep(ctx, true, nil, 0)
		},
	}
}

// runs is a list of single orion.RunContext calls taken in a fixed
// cyclic order.
type runs struct {
	batch
	cfgs []orion.Config
	// setupCfgs are the configurations one set-up builds.
	setupCfgs []orion.Config
	// wholeList ends a timed phase only at the end of the list, for
	// lists whose runs differ in cost.
	wholeList bool
}

// newFig5Runs takes the 32 grid points one run at a time with
// Sim.Workers left 0, as cmd/orion does. The points differ in cost by
// a factor of five, so a timed phase runs whole passes over them.
func newFig5Runs(p params) *runs {
	pts := gridPoints(fig5Grid(p))
	return &runs{cfgs: pts, setupCfgs: pts, wholeList: true}
}

// newMesh runs the 32×32 VC8 mesh at rate with two tick workers, at
// seeds s..s+3.
func newMesh(p params, rate float64) *runs {
	w := &runs{}
	for k := int64(0); k < 4; k++ {
		cfg := orion.OnChipMesh(32, 32, orion.VC8(), rate)
		if p.quick {
			cfg = orion.OnChipMesh(8, 8, orion.VC8(), rate*4)
			cfg.Sim.SamplePackets = 300
		}
		cfg.Traffic.Seed = p.seed + k
		cfg.Sim.Workers = 2
		w.cfgs = append(w.cfgs, cfg)
	}
	w.setupCfgs = w.cfgs[:1]
	return w
}

func (w *runs) setUp() (func() error, error) { return nil, buildAll(w.setupCfgs) }

func (w *runs) next(_, i int) op {
	k := i % len(w.cfgs)
	cfg := w.cfgs[k]
	return op{
		key:     fmt.Sprintf("run %d", k),
		workers: 1,
		midList: w.wholeList && k < len(w.cfgs)-1,
		run: func(ctx context.Context, tr *tracer, parent uint64) ([]*orion.Result, error) {
			if tr == nil {
				return one(orion.RunContext(ctx, cfg))
			}
			return one(tracedPoint(ctx, cfg, tr, parent))
		},
		reference: func(ctx context.Context) ([]*orion.Result, error) {
			return one(orion.RunContext(ctx, referenceConfig(cfg)))
		},
	}
}

// sweepJournal runs orion.SweepJournaledContext passes over lists of
// tiny points, each pass on a fresh journal file.
type sweepJournal struct {
	batch
	cfg   orion.Config
	lists [][]float64
	dir   string
	files int
	// bytes and points total the journaled passes since mark.
	bytes, points int64
}

// journalSetupPoints is the size of the sweep one set-up journals.
const journalSetupPoints = 8

// newSweepJournal draws four lists of distinct rates in [0.01, 0.06)
// for a 4×4 VC16 torus with 100 warm-up cycles and 100 sample packets,
// so that the journal's digest, JSON and fsync per point weigh as much
// as the simulation.
func newSweepJournal(p params) *sweepJournal {
	cfg := orion.OnChip4x4(orion.VC16(), 0)
	cfg.Sim.WarmupCycles, cfg.Sim.SamplePackets = 100, 100
	cfg.Traffic.Seed = p.seed
	perList := 512
	if p.quick {
		perList = 16
	}
	w := &sweepJournal{cfg: cfg, dir: p.dir}
	// One rate from each of perList equal slices of the range, so every
	// list costs about the same whatever the seed.
	rng := rand.New(rand.NewPCG(uint64(p.seed), 0x6a6f75726e616c))
	seen := map[float64]bool{}
	for range 4 {
		rates := make([]float64, perList)
		for i := range rates {
			for rates[i] == 0 || seen[rates[i]] {
				rates[i] = 0.01 + 0.05*(float64(i)+rng.Float64())/float64(perList)
			}
			seen[rates[i]] = true
		}
		w.lists = append(w.lists, rates)
	}
	return w
}

// journaled runs one journaled pass on a fresh file and removes it.
func (w *sweepJournal) journaled(ctx context.Context, rates []float64) ([]*orion.Result, error) {
	w.files++
	path := filepath.Join(w.dir, fmt.Sprintf("journal-%d.jsonl", w.files))
	defer os.Remove(path)
	res, err := orion.SweepJournaledContext(ctx, w.cfg, rates, orion.SweepJournalOptions{Path: path})
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w.bytes += info.Size()
	w.points += int64(len(rates))
	return res, nil
}

func (w *sweepJournal) setUp() (func() error, error) {
	_, err := w.journaled(context.Background(), w.lists[0][:journalSetupPoints])
	return nil, err
}

func (w *sweepJournal) next(_, i int) op {
	rates := w.lists[i%len(w.lists)]
	key := fmt.Sprintf("rates %d", i%len(w.lists))
	workers := min(runtime.NumCPU(), len(rates))
	return op{
		key:     key,
		span:    spanJournal,
		workers: workers,
		run: func(ctx context.Context, _ *tracer, _ uint64) ([]*orion.Result, error) {
			return w.journaled(ctx, rates)
		},
		reference: func(ctx context.Context) ([]*orion.Result, error) {
			return orion.SweepContext(ctx, referenceConfig(w.cfg), rates)
		},
		alsoTraced: &op{
			key:     key,
			workers: workers,
			run: func(ctx context.Context, tr *tracer, parent uint64) ([]*orion.Result, error) {
				return orion.SweepWithRunner(ctx, w.cfg, rates, tracedRunner(tr, parent), nil)
			},
		},
	}
}

func (w *sweepJournal) mark() { w.bytes, w.points = 0, 0 }

func (w *sweepJournal) layerCounts() map[string]float64 {
	if w.points == 0 {
		return nil
	}
	return map[string]float64{"journal.bytes_per_point": float64(w.bytes) / float64(w.points)}
}
