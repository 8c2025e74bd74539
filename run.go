package orion

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"orion/internal/backoff"
	"orion/internal/core"
	"orion/internal/power"
	"orion/internal/router"
	"orion/internal/sim"
	"orion/internal/stats"
	"orion/internal/tech"
	"orion/internal/topology"
	"orion/internal/traffic"
)

// PowerBreakdown aggregates average power by component, in watts — the
// quantities behind the paper's Figures 5(c), 7(c) and 7(f). Constant
// (traffic-insensitive) chip-to-chip link power is included in LinkW.
type PowerBreakdown struct {
	BufferW        float64
	CrossbarW      float64
	ArbiterW       float64
	LinkW          float64
	CentralBufferW float64
}

// Total returns the sum over components.
func (b PowerBreakdown) Total() float64 {
	return b.BufferW + b.CrossbarW + b.ArbiterW + b.LinkW + b.CentralBufferW
}

// Result reports one simulation's outcome.
type Result struct {
	// AvgLatency is the mean sample-packet latency in cycles, measured
	// from packet creation (including source queuing) to last-flit
	// ejection (Section 4.1).
	AvgLatency float64
	// MinLatency and MaxLatency bound the sample.
	MinLatency, MaxLatency float64
	// LatencyStdDev is the sample standard deviation.
	LatencyStdDev float64
	// LatencyP50, LatencyP95 and LatencyP99 are latency percentiles
	// (nearest-rank).
	LatencyP50, LatencyP95, LatencyP99 float64
	// SamplePackets is the number of measured packets.
	SamplePackets int64

	// MeasuredCycles is the measurement window; TotalCycles includes
	// warm-up.
	MeasuredCycles, TotalCycles int64
	// InjectedFlits and EjectedFlits count flits during measurement.
	InjectedFlits, EjectedFlits int64
	// AcceptedFlitsPerNodeCycle is delivered throughput.
	AcceptedFlitsPerNodeCycle float64
	// AcceptedPacketsPerNodeCycle is delivered packet throughput.
	AcceptedPacketsPerNodeCycle float64

	// TotalPowerW is total network average power.
	TotalPowerW float64
	// NodePowerW is per-node average power, indexed by node id
	// (y*Width + x) — the spatial distribution of Figure 6.
	NodePowerW []float64
	// NodeBreakdown splits each node's power by component (constant
	// chip-to-chip link power and leakage folded in, like Breakdown).
	NodeBreakdown []PowerBreakdown
	// Breakdown splits power by component.
	Breakdown PowerBreakdown
	// StaticPowerW is network-wide leakage power, zero unless
	// SimConfig.IncludeLeakage was set.
	StaticPowerW float64
	// EnergyJ is total energy recorded during measurement.
	EnergyJ float64
	// Events tallies the microarchitectural operations of the
	// measurement window — the switching activity the paper monitors
	// through simulation.
	Events EventCounts
	// PowerProfileW is the power-vs-time series sampled every
	// SimConfig.ProfileWindowCycles (empty unless requested).
	PowerProfileW []float64

	// DroppedFlits counts flits discarded by link-drop faults during
	// measurement; DroppedSamplePackets counts sample packets among them
	// (those packets are excluded from the latency statistics).
	DroppedFlits, DroppedSamplePackets int64
	// Faults reports the observable effects of the injected fault
	// schedule (zero unless Config.Faults was set).
	Faults FaultStats

	// OfferedRate echoes the injection rate that produced this result,
	// convenient when sweeping.
	OfferedRate float64
}

// EventCounts tallies energy-consuming operations over the measurement
// window (Section 3.3's event classes).
type EventCounts struct {
	BufferWrites        int64
	BufferReads         int64
	Arbitrations        int64
	VCAllocations       int64
	CrossbarTraversals  int64
	LinkTraversals      int64
	CentralBufferWrites int64
	CentralBufferReads  int64
}

// resolve translates the public Config into the internal core.Config.
func resolve(cfg Config) (core.Config, error) {
	var out core.Config

	if cfg.Width <= 0 || cfg.Height <= 0 {
		return out, fmt.Errorf("orion: network dimensions must be positive, got %d×%d", cfg.Width, cfg.Height)
	}
	if cfg.Concentration > 1 && !cfg.Mesh {
		return out, fmt.Errorf("orion: Concentration requires Mesh (concentrated torus is not supported)")
	}
	radices := []int{cfg.Width, cfg.Height}
	if cfg.Depth > 1 {
		if cfg.Mesh {
			return out, fmt.Errorf("orion: 3-D networks are torus only")
		}
		radices = append(radices, cfg.Depth)
	}
	topo, err := topology.New(radices, !cfg.Mesh, max(cfg.Concentration, 1), cfg.BalancedTieRouting)
	if err != nil {
		return out, err
	}

	t := tech.Default()
	if cfg.Tech.FeatureUm > 0 && cfg.Tech.FeatureUm != t.FeatureUm {
		t, err = t.Scaled(cfg.Tech.FeatureUm)
		if err != nil {
			return out, err
		}
	}
	if cfg.Tech.Vdd > 0 {
		t.Vdd = cfg.Tech.Vdd
	}
	if cfg.Tech.FreqGHz > 0 {
		t.FreqHz = cfg.Tech.FreqGHz * 1e9
	}

	rcfg := router.Config{
		Ports:       topo.Ports(),
		VCs:         cfg.Router.VCs,
		BufferDepth: cfg.Router.BufferDepth,
		FlitBits:    cfg.Router.FlitBits,
		Speculative: cfg.Router.Speculative,
	}
	switch cfg.Router.Kind {
	case VirtualChannel:
		rcfg.Kind = router.VirtualChannel
		if rcfg.VCs == 0 {
			rcfg.VCs = 2
		}
	case Wormhole:
		rcfg.Kind = router.Wormhole
		rcfg.VCs = 1
	case CentralBuffered:
		rcfg.Kind = router.CentralBuffered
		rcfg.VCs = 1
		rcfg.CBBanks = cfg.Router.CentralBuffer.Banks
		rcfg.CBRows = cfg.Router.CentralBuffer.Rows
		rcfg.CBReadPorts = cfg.Router.CentralBuffer.ReadPorts
		rcfg.CBWritePorts = cfg.Router.CentralBuffer.WritePorts
	default:
		return out, fmt.Errorf("orion: unknown router kind %d", int(cfg.Router.Kind))
	}

	lcfg := power.LinkConfig{WidthBits: cfg.Router.FlitBits}
	if cfg.Link.ChipToChip {
		lcfg.Kind = power.ChipToChipLink
		lcfg.ConstantWatts = cfg.Link.ConstantWatts
	} else {
		lcfg.Kind = power.OnChipLink
		lengthMm := cfg.Link.LengthMm
		if lengthMm <= 0 {
			lengthMm = 3 // the paper's 4×4 torus on a 12 mm chip
		}
		lcfg.LengthUm = lengthMm * 1000
	}

	var dvs *power.DVSConfig
	if cfg.Link.DVS != nil {
		d := power.DefaultDVSConfig()
		if len(cfg.Link.DVS.Levels) > 0 {
			d.Levels = nil
			for _, l := range cfg.Link.DVS.Levels {
				d.Levels = append(d.Levels, power.DVSLevel{VddScale: l.VddScale, SpeedScale: l.SpeedScale})
			}
		}
		if cfg.Link.DVS.WindowCycles > 0 {
			d.WindowCycles = cfg.Link.DVS.WindowCycles
		}
		if cfg.Link.DVS.UpUtil > 0 {
			d.UpUtil = cfg.Link.DVS.UpUtil
		}
		if cfg.Link.DVS.DownUtil > 0 {
			d.DownUtil = cfg.Link.DVS.DownUtil
		}
		dvs = &d
	}

	nodes := topo.Nodes()
	if cfg.Traffic.Rate < 0 || cfg.Traffic.Rate > 1 {
		return out, fmt.Errorf("orion: injection rate %g outside [0,1]", cfg.Traffic.Rate)
	}
	tcfg := traffic.Config{
		PacketLength: cfg.Traffic.PacketLength,
		FlitBits:     cfg.Router.FlitBits,
		Seed:         cfg.Traffic.Seed,
	}
	switch cfg.Traffic.Pattern.Kind {
	case PatternUniform:
		tcfg.Pattern = traffic.Uniform{Nodes: nodes}
		tcfg.Rates = traffic.UniformRates(nodes, cfg.Traffic.Rate)
	case PatternBroadcast:
		src := cfg.Traffic.Pattern.Source
		if src < 0 || src >= nodes {
			return out, fmt.Errorf("orion: broadcast source %d out of range [0,%d)", src, nodes)
		}
		tcfg.Pattern = &traffic.Broadcast{Nodes: nodes, Source: src}
		tcfg.Rates = traffic.SingleSourceRates(nodes, src, cfg.Traffic.Rate)
	case PatternTranspose:
		if cfg.Depth > 1 || cfg.Concentration > 1 {
			return out, fmt.Errorf("orion: transpose is a 2-D pattern")
		}
		if cfg.Width != cfg.Height {
			return out, fmt.Errorf("orion: transpose needs a square network, got %d×%d", cfg.Width, cfg.Height)
		}
		tcfg.Pattern = traffic.Transpose{Width: cfg.Width}
		tcfg.Rates = traffic.UniformRates(nodes, cfg.Traffic.Rate)
	case PatternBitComplement:
		tcfg.Pattern = traffic.BitComplement{Nodes: nodes}
		tcfg.Rates = traffic.UniformRates(nodes, cfg.Traffic.Rate)
	case PatternTornado:
		if cfg.Depth > 1 || cfg.Concentration > 1 {
			return out, fmt.Errorf("orion: tornado is a 2-D pattern")
		}
		tcfg.Pattern = traffic.Tornado{Width: cfg.Width, Height: cfg.Height}
		tcfg.Rates = traffic.UniformRates(nodes, cfg.Traffic.Rate)
	case PatternHotspot:
		hot := cfg.Traffic.Pattern.Source
		if hot < 0 || hot >= nodes {
			return out, fmt.Errorf("orion: hotspot node %d out of range [0,%d)", hot, nodes)
		}
		tcfg.Pattern = traffic.Hotspot{Nodes: nodes, Hot: hot, Fraction: cfg.Traffic.Pattern.Fraction}
		tcfg.Rates = traffic.UniformRates(nodes, cfg.Traffic.Rate)
	case PatternNeighbor:
		if cfg.Depth > 1 || cfg.Concentration > 1 {
			return out, fmt.Errorf("orion: neighbor is a 2-D pattern")
		}
		tcfg.Pattern = traffic.Neighbor{Width: cfg.Width, Height: cfg.Height}
		tcfg.Rates = traffic.UniformRates(nodes, cfg.Traffic.Rate)
	default:
		return out, fmt.Errorf("orion: unknown traffic pattern %d", int(cfg.Traffic.Pattern.Kind))
	}

	var arb power.ArbiterKind
	switch cfg.Sim.Arbiter {
	case MatrixArbiter:
		arb = power.MatrixArbiter
	case RoundRobinArbiter:
		arb = power.RoundRobinArbiter
	case QueuingArbiter:
		arb = power.QueuingArbiter
	default:
		return out, fmt.Errorf("orion: unknown arbiter kind %d", int(cfg.Sim.Arbiter))
	}
	xbk := power.MatrixCrossbar
	if cfg.Sim.MuxTreeCrossbar {
		xbk = power.MuxTreeCrossbar
	}
	var dl core.DeadlockMode
	switch cfg.Sim.Deadlock {
	case DeadlockBubble:
		dl = core.DeadlockBubble
	case DeadlockDateline:
		dl = core.DeadlockDateline
	case DeadlockNone:
		dl = core.DeadlockNone
	default:
		return out, fmt.Errorf("orion: unknown deadlock mode %d", int(cfg.Sim.Deadlock))
	}

	out = core.Config{
		Topology:       topo,
		Router:         rcfg,
		Link:           lcfg,
		Tech:           t,
		Traffic:        tcfg,
		ArbiterKind:    arb,
		CrossbarKind:   xbk,
		FixedActivity:  cfg.Sim.FixedActivity,
		Deadlock:       dl,
		IncludeLeakage: cfg.Sim.IncludeLeakage,
		LinkDVS:        dvs,
		ProfileWindow:  cfg.Sim.ProfileWindowCycles,
		WarmupCycles:   cfg.Sim.WarmupCycles,
		SamplePackets:  cfg.Sim.SamplePackets,
		MaxCycles:      cfg.Sim.MaxCycles,
		ProgressWindow: cfg.Sim.ProgressWindowCycles,

		ReferenceEventPath: cfg.Sim.ReferenceEventPath,
		Faults:             cfg.Faults.toInternal(),
		CheckInvariants:    cfg.CheckInvariants.enabled(),
		Workers:            cfg.Sim.Workers,
		AlwaysTick:         cfg.Sim.AlwaysTick,
	}
	return out, nil
}

func fromCore(r *core.Result, rate float64) *Result {
	var nodeBreakdown []PowerBreakdown
	if r.Power != nil {
		nodeBreakdown = make([]PowerBreakdown, len(r.Power.NodeWatts))
		for n := range r.Power.NodeWatts {
			w := r.Power.NodeWatts[n]
			s := r.Power.NodeStaticWatts[n]
			nodeBreakdown[n] = PowerBreakdown{
				BufferW:        w[stats.CompBuffer] + s[stats.CompBuffer],
				CrossbarW:      w[stats.CompCrossbar] + s[stats.CompCrossbar],
				ArbiterW:       w[stats.CompArbiter] + s[stats.CompArbiter],
				LinkW:          w[stats.CompLink] + s[stats.CompLink] + r.Power.NodeConstWatts[n],
				CentralBufferW: w[stats.CompCentralBuffer] + s[stats.CompCentralBuffer],
			}
		}
	}
	return &Result{
		AvgLatency:                  r.AvgLatency,
		MinLatency:                  r.MinLatency,
		MaxLatency:                  r.MaxLatency,
		LatencyStdDev:               r.LatencyStdDev,
		LatencyP50:                  r.LatencyP50,
		LatencyP95:                  r.LatencyP95,
		LatencyP99:                  r.LatencyP99,
		NodeBreakdown:               nodeBreakdown,
		SamplePackets:               r.SamplePackets,
		MeasuredCycles:              r.MeasuredCycles,
		TotalCycles:                 r.TotalCycles,
		InjectedFlits:               r.InjectedFlits,
		EjectedFlits:                r.EjectedFlits,
		AcceptedFlitsPerNodeCycle:   r.AcceptedFlitsPerNodeCycle,
		AcceptedPacketsPerNodeCycle: r.AcceptedPacketsPerNodeCycle,
		TotalPowerW:                 r.TotalPowerW,
		NodePowerW:                  r.NodePowerW,
		Breakdown: PowerBreakdown{
			BufferW:        r.ComponentPowerW[stats.CompBuffer],
			CrossbarW:      r.ComponentPowerW[stats.CompCrossbar],
			ArbiterW:       r.ComponentPowerW[stats.CompArbiter],
			LinkW:          r.ComponentPowerW[stats.CompLink],
			CentralBufferW: r.ComponentPowerW[stats.CompCentralBuffer],
		},
		StaticPowerW: r.StaticPowerW,
		EnergyJ:      r.EnergyJ,
		Events: EventCounts{
			BufferWrites:        r.EventCounts[sim.EvBufferWrite],
			BufferReads:         r.EventCounts[sim.EvBufferRead],
			Arbitrations:        r.EventCounts[sim.EvArbitration],
			VCAllocations:       r.EventCounts[sim.EvVCAllocation],
			CrossbarTraversals:  r.EventCounts[sim.EvCrossbarTraversal],
			LinkTraversals:      r.EventCounts[sim.EvLinkTraversal],
			CentralBufferWrites: r.EventCounts[sim.EvCentralBufWrite],
			CentralBufferReads:  r.EventCounts[sim.EvCentralBufRead],
		},
		PowerProfileW:        r.PowerProfileW,
		DroppedFlits:         r.DroppedFlits,
		DroppedSamplePackets: r.DroppedSamplePackets,
		Faults:               faultStatsFromInternal(r.FaultStats),
		OfferedRate:          rate,
	}
}

// Run builds and executes one simulation. Failures wrap the package's
// sentinel errors (ErrSaturated, ErrDeadlock, ErrInvariant, ErrFaulted)
// for errors.Is classification.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation polls ctx between
// cycles and aborts with an error wrapping ctx.Err() once the context is
// done. A context without cancellation costs nothing on the hot path.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	n, err := core.Build(ccfg)
	if err != nil {
		return nil, err
	}
	res, err := n.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return fromCore(res, cfg.Traffic.Rate), nil
}

// RunTrace runs the configuration with packet injections replayed from a
// communication trace instead of a synthetic pattern, implementing the
// paper's note that Orion "can be interfaced with actual communication
// traces" (Section 4.3). The trace is whitespace-separated text with one
// record per line — "cycle src dst" — where cycles are absolute simulation
// cycles and src/dst are node indices. Traffic.Pattern and Traffic.Rate
// are ignored; packet length and seed still apply (payload bits are
// synthesised, as traces carry no data).
func RunTrace(cfg Config, trace io.Reader) (*Result, error) {
	recs, err := traffic.ParseTrace(trace)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("orion: trace contains no records")
	}
	cfg.Traffic.Pattern = Uniform()
	cfg.Traffic.Rate = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if r.Src >= ccfg.Topology.Nodes() || r.Dst >= ccfg.Topology.Nodes() {
			return nil, fmt.Errorf("orion: trace node %d/%d outside %d-node network", r.Src, r.Dst, ccfg.Topology.Nodes())
		}
	}
	ccfg.Trace = traffic.NewTrace(recs)
	res, err := core.RunConfig(ccfg)
	if err != nil {
		return nil, err
	}
	return fromCore(res, 0), nil
}

// ZeroLoadLatency measures the configuration's contention-free latency.
func ZeroLoadLatency(cfg Config) (float64, error) {
	if cfg.Traffic.Rate == 0 {
		cfg.Traffic.Rate = 0.01
	}
	ccfg, err := resolve(cfg)
	if err != nil {
		return 0, err
	}
	return core.ZeroLoadLatency(ccfg)
}

// Sweep runs the configuration at each injection rate, runtime.NumCPU()
// points at a time, and returns results in rate order. It is
// SweepJournaledContext with no journal; failures are reported as
// there: a nil entry per failed rate, with a *SweepError aggregating the
// typed per-point errors.
func Sweep(cfg Config, rates []float64) ([]*Result, error) {
	return SweepContext(context.Background(), cfg, rates)
}

// SweepContext is Sweep with cancellation and per-point deadlines.
// Cancelling ctx aborts every in-flight point; the partial results come
// back with an error wrapping ctx.Err(). SimConfig.PointTimeout
// additionally bounds each point's wall-clock time. A point that panics
// (a simulator bug) records the panic as that point's error instead of
// tearing down the process, so a sweep always returns its partial
// results.
func SweepContext(ctx context.Context, cfg Config, rates []float64) ([]*Result, error) {
	return SweepJournaledContext(ctx, cfg, rates, SweepJournalOptions{})
}

// PointRunner executes one sweep point: the configuration at one
// injection rate. RunPoint is the in-process default; internal/remote's
// Pool.RunPoint dispatches the point to a remote orion-serve backend
// instead. Runners must be safe for concurrent use — sweeps call them
// for several points at once.
type PointRunner func(ctx context.Context, cfg Config, rate float64) (*Result, error)

// SweepProgress receives settled-point counts as a sweep advances: done
// points out of total. It is called once as soon as the sweep's queue is
// open (with the points already settled, often 0), then whenever the
// count grows. done never decreases and ends at total once the sweep
// completes; it may skip values when other processes settle several
// points of a shared journal at once. Callbacks run on the sweep's
// claim loop and must be cheap.
type SweepProgress func(done, total int)

// SweepWithRunner is SweepContext with a pluggable per-point executor
// (nil means RunPoint) and a progress feed (nil for none). The serving
// layer uses the runner seam to dispatch points to remote backends and
// the progress seam to report points_done on async job polls.
func SweepWithRunner(ctx context.Context, cfg Config, rates []float64, run PointRunner, progress SweepProgress) ([]*Result, error) {
	return SweepJournaledContext(ctx, cfg, rates, SweepJournalOptions{Run: run, Progress: progress})
}

// collectSweepError aggregates per-point failures into a *SweepError in
// rate order, or nil when every point succeeded.
func collectSweepError(rates []float64, errs []error) *SweepError {
	var serr *SweepError
	for i, err := range errs {
		if err != nil {
			if serr == nil {
				serr = &SweepError{}
			}
			serr.Index = append(serr.Index, i)
			serr.Rates = append(serr.Rates, rates[i])
			serr.Errs = append(serr.Errs, err)
		}
	}
	return serr
}

// errPointPanic marks a sweep point whose worker panicked — a transient
// classification for retry purposes (unexported: callers see the message).
var errPointPanic = errors.New("panicked")

// RunPoint runs one sweep point exactly as Sweep does — panic recovery,
// the SimConfig.PointTimeout deadline, transient-failure retries with
// deterministic backoff, and the default to a single tick worker (a
// sweep already fills the machine with concurrent points). It is the
// default PointRunner, exported so remote dispatch layers can fall back
// to the identical local execution.
func RunPoint(ctx context.Context, cfg Config, rate float64) (*Result, error) {
	return runPoint(ctx, cfg, rate)
}

// Sweep-point retries back off from pointRetryBase, doubling per attempt
// up to pointRetryMax, with jitter keyed by the point's rate.
const (
	pointRetryBase = 100 * time.Millisecond
	pointRetryMax  = 5 * time.Second
)

// pointRetryDelay is the pause before a sweep point's retry attempt.
func pointRetryDelay(attempt int, rate float64) time.Duration {
	return backoff.Delay(attempt, pointRetryBase, pointRetryMax, math.Float64bits(rate))
}

// runPoint runs one sweep point, converting panics to errors, applying
// the per-point deadline, and retrying transient failures up to
// SimConfig.PointRetries times with jittered backoff. Only failures that
// could plausibly differ on a re-run are retried: a worker panic or a
// PointTimeout deadline (the sweep's own context still being alive).
// Deterministic failures — saturation, deadlock, invariant violations —
// and sweep cancellation stick on the first occurrence.
func runPoint(ctx context.Context, cfg Config, rate float64) (*Result, error) {
	// A sweep already fills the machine with concurrent points; letting
	// each point also auto-resolve to GOMAXPROCS tick workers would
	// oversubscribe every core. Points default to one worker unless the
	// caller explicitly asked for intra-run parallelism.
	if cfg.Sim.Workers == 0 {
		cfg.Sim.Workers = 1
	}
	res, err := runPointOnce(ctx, cfg, rate)
	for attempt := 1; err != nil && attempt <= cfg.Sim.PointRetries; attempt++ {
		if ctx.Err() != nil {
			break
		}
		if !errors.Is(err, errPointPanic) && !errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if !backoff.Sleep(ctx, pointRetryDelay(attempt, rate)) {
			break
		}
		res, err = runPointOnce(ctx, cfg, rate)
	}
	return res, err
}

// runPointOnce is a single attempt at a sweep point.
func runPointOnce(ctx context.Context, cfg Config, rate float64) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("orion: sweep point rate %g %w: %v", rate, errPointPanic, r)
		}
	}()
	if cfg.Sim.PointTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Sim.PointTimeout)
		defer cancel()
	}
	cfg.Traffic.Rate = rate
	return RunContext(ctx, cfg)
}

// SaturationThroughput sweeps the injection rates and returns the lowest
// rate whose latency exceeds twice the zero-load latency — the paper's
// saturation definition (Section 4.1). ok is false when the network does
// not saturate within the given rates. A point that fails with
// ErrSaturated witnesses saturation; any other failure is returned in
// err (with whatever rate the remaining points give).
func SaturationThroughput(cfg Config, rates []float64) (rate float64, ok bool, results []*Result, err error) {
	zl, err := ZeroLoadLatency(cfg)
	if err != nil {
		return 0, false, nil, err
	}
	results, err = Sweep(cfg, rates)
	rate, ok, err = Saturation(rates, results, err, zl)
	return rate, ok, results, err
}

// Saturation reads the paper's saturation throughput off a swept curve:
// the lowest rate whose latency exceeds twice zeroLoad, with results and
// sweepErr as a sweep over rates returned them. A point that failed with
// ErrSaturated (an over-saturated run that could not finish) counts as
// infinitely slow; any other failure says nothing about the curve and is
// skipped. sweepErr comes back as err unless it is a *SweepError whose
// every failure is such a witness.
func Saturation(rates []float64, results []*Result, sweepErr error, zeroLoad float64) (rate float64, ok bool, err error) {
	pointErrs := make([]error, len(rates))
	var serr *SweepError
	witnessesOnly := errors.As(sweepErr, &serr)
	if serr != nil {
		for j, i := range serr.Index {
			pointErrs[i] = serr.Errs[j]
			witnessesOnly = witnessesOnly && errors.Is(serr.Errs[j], ErrSaturated)
		}
	}
	var rs, ls []float64
	for i, res := range results {
		switch {
		case res != nil:
			rs, ls = append(rs, rates[i]), append(ls, res.AvgLatency)
		case errors.Is(pointErrs[i], ErrSaturated):
			rs, ls = append(rs, rates[i]), append(ls, math.Inf(1))
		}
	}
	rate, ok = stats.SaturationRate(rs, ls, zeroLoad)
	if witnessesOnly {
		sweepErr = nil
	}
	return rate, ok, sweepErr
}
