// Package experiments defines, runs and renders the paper's evaluation
// (Section 4): the Section 3.3 walkthrough, Figure 5 (wormhole vs
// virtual-channel routers, on-chip), Figure 6 (uniform vs broadcast power
// maps), Figure 7 (central-buffered vs crossbar routers, chip-to-chip) and
// the design-choice ablations. cmd/orion-exp prints the rendered blocks,
// and every table of EXPERIMENTS.md is one of them.
package experiments

import (
	"fmt"

	"orion"
)

// Options trades fidelity for speed: SamplePackets overrides the
// measurement sample size, MaxCycles bounds each run and Seed seeds the
// workloads. The zero value uses the paper's protocol (1000 warm-up
// cycles, 10,000 sample packets).
type Options struct {
	SamplePackets int
	MaxCycles     int64
	Seed          int64
}

func (o Options) apply(cfg *orion.Config) {
	if o.SamplePackets > 0 {
		cfg.Sim.SamplePackets = o.SamplePackets
	}
	if o.MaxCycles > 0 {
		cfg.Sim.MaxCycles = o.MaxCycles
	}
	cfg.Traffic.Seed = o.Seed
}

// RatePoint is one injection-rate measurement of a latency/power curve:
// offered load in packets/cycle/node, average packet latency in cycles,
// and total network power in watts, split by component. Failed marks a
// rate whose run aborted (driven too far past saturation for every
// sample packet to drain within MaxCycles).
type RatePoint struct {
	Rate, Latency, PowerW float64
	Breakdown             orion.PowerBreakdown
	Failed                bool
}

// Curve is one router configuration's sweep, e.g. one line of Figure
// 5(a)/(b): its label (WH64, VC16, ...), contention-free latency in
// cycles, the lowest rate whose latency exceeds twice that (Section 4.1;
// valid when Saturated), and the swept points in rate order.
type Curve struct {
	Label          string
	ZeroLoad       float64
	SaturationRate float64
	Saturated      bool
	Points         []RatePoint
}

// Fig5Rates are the default injection rates for the on-chip sweep,
// matching Figure 5's x-axis (packets/cycle/node up to 0.2).
func Fig5Rates() []float64 {
	return []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20}
}

// Fig7Rates are the default injection rates for the chip-to-chip sweep.
// The central-buffered router's two fabric read ports bound its throughput
// well below the crossbar's, so the sweep concentrates on lower rates.
func Fig7Rates() []float64 {
	return []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16}
}

// The swept rates whose points Figures 5(c) and 7(c)/(f) split by
// component.
const (
	fig5cRate = 0.10
	fig7cRate = 0.06
)

// sweepCurve measures one configuration across rates, tolerating
// over-saturated failures (recorded as Failed points).
func sweepCurve(label string, base orion.Config, rates []float64) (Curve, error) {
	curve := Curve{Label: label}
	var err error
	if curve.ZeroLoad, err = orion.ZeroLoadLatency(base); err != nil {
		return curve, fmt.Errorf("%s zero-load: %w", label, err)
	}
	// Per-point failures become Failed points; the curve keeps the rest.
	results, sweepErr := orion.Sweep(base, rates)
	curve.SaturationRate, curve.Saturated, _ = orion.Saturation(rates, results, sweepErr, curve.ZeroLoad)
	for i, res := range results {
		pt := RatePoint{Rate: rates[i], Failed: res == nil}
		if res != nil {
			pt.Latency, pt.PowerW, pt.Breakdown = res.AvgLatency, res.TotalPowerW, res.Breakdown
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}

// labelled is a named router configuration, as orion.Fig5Configs lists
// them.
type labelled = struct {
	Label  string
	Router orion.RouterConfig
}

// sweepAll sweeps each router, built into a configuration by config, over
// rates.
func sweepAll(opt Options, rates []float64, routers []labelled, config func(orion.RouterConfig) orion.Config) ([]Curve, error) {
	var curves []Curve
	for _, c := range routers {
		base := config(c.Router)
		opt.apply(&base)
		curve, err := sweepCurve(c.Label, base, rates)
		if err != nil {
			return curves, err
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// Figure5 sweeps the four on-chip configurations over the given rates
// (Figures 5(a) latency and 5(b) power; each point's Breakdown is Figure
// 5(c)).
func Figure5(opt Options, rates []float64) ([]Curve, error) {
	if rates == nil {
		rates = Fig5Rates()
	}
	return sweepAll(opt, rates, orion.Fig5Configs(), func(r orion.RouterConfig) orion.Config { return orion.OnChip4x4(r, 0) })
}

// Figure6 runs the workload comparison of Section 4.3 on the VC16-style
// router (2 VCs, 8-flit buffers): uniform random traffic with a total
// network injection of 0.2 packets/cycle (0.0125 per node) versus
// broadcast from node (1,2) at 0.2 packets/cycle. Both results carry
// per-node power for the Figure 6 spatial maps.
func Figure6(opt Options) (uniform, broadcast *orion.Result, err error) {
	u, b := orion.OnChip4x4(orion.VC16(), 0.2/16), orion.OnChip4x4(orion.VC16(), 0.2)
	b.Traffic.Pattern = orion.BroadcastFrom(orion.BroadcastNode12)
	opt.apply(&u)
	opt.apply(&b)
	if uniform, err = orion.Run(u); err != nil {
		return nil, nil, fmt.Errorf("figure 6 uniform: %w", err)
	}
	if broadcast, err = orion.Run(b); err != nil {
		return nil, nil, fmt.Errorf("figure 6 broadcast: %w", err)
	}
	return uniform, broadcast, nil
}

// Figure7 sweeps the chip-to-chip XB and CB configurations (Section 4.4)
// under uniform random traffic (Figures 7(a) latency and 7(b) power; each
// point's Breakdown is Figures 7(c) and 7(f)) or broadcast traffic from
// node (1,2) (Figures 7(d) and 7(e)).
func Figure7(opt Options, rates []float64, broadcast bool) ([]Curve, error) {
	if rates == nil {
		rates = Fig7Rates()
	}
	return sweepAll(opt, rates, []labelled{{"XB", orion.XB()}, {"CB", orion.CB()}}, func(r orion.RouterConfig) orion.Config {
		cfg := orion.ChipToChip4x4(r, 0)
		if broadcast {
			cfg.Traffic.Pattern = orion.BroadcastFrom(orion.BroadcastNode12)
		}
		return cfg
	})
}

// Walkthrough returns the component energy report for the Section 3.3
// example router: 5 ports, 4-flit buffers, 32-bit flits, 5×5 crossbar and
// 4:1 matrix arbiters, with 3 mm on-chip links.
func Walkthrough() (*orion.EnergyReport, error) {
	return orion.ComponentEnergies(orion.Config{
		Width: 4, Height: 4,
		Router:  orion.RouterConfig{Kind: orion.Wormhole, BufferDepth: 4, FlitBits: 32},
		Link:    orion.LinkConfig{LengthMm: 3},
		Traffic: orion.TrafficConfig{Pattern: orion.Uniform(), Rate: 0.1, PacketLength: 5},
	})
}

// Variant is one design choice of an ablation: VC16 on-chip at Rate with
// Mutate applied, and its run (Result, or Err when the run failed).
type Variant struct {
	Name   string
	Rate   float64
	Mutate func(*orion.Config)
	Result *orion.Result
	Err    error
}

// runAblations runs the design-choice comparisons of EXPERIMENTS.md, one
// group per table: deadlock avoidance, pipeline speculation and routing
// tie-break just past VC16's saturation; crossbar, activity, arbiter and
// leakage models in the linear regime; and links without and with DVS at
// a light load, then at a moderate one. Each group's first variant is its
// baseline.
func runAblations(opt Options) [][]Variant {
	dvs := func(c *orion.Config) { c.Link.DVS = &orion.DVSPolicy{} }
	groups := [][]Variant{
		{
			{Name: "bubble (default)", Rate: 0.14},
			{Name: "dateline VCs", Rate: 0.14, Mutate: func(c *orion.Config) { c.Sim.Deadlock = orion.DeadlockDateline }},
			{Name: "speculative pipeline", Rate: 0.14, Mutate: func(c *orion.Config) { c.Router.Speculative = true }},
			{Name: "balanced tie routing", Rate: 0.14, Mutate: func(c *orion.Config) { c.BalancedTieRouting = true }},
		},
		{
			{Name: "matrix crossbar (default)", Rate: 0.08},
			{Name: "mux-tree crossbar", Rate: 0.08, Mutate: func(c *orion.Config) { c.Sim.MuxTreeCrossbar = true }},
			{Name: "fixed α=0.5 activity", Rate: 0.08, Mutate: func(c *orion.Config) { c.Sim.FixedActivity = true }},
			{Name: "round-robin arbiters", Rate: 0.08, Mutate: func(c *orion.Config) { c.Sim.Arbiter = orion.RoundRobinArbiter }},
			{Name: "queuing arbiters", Rate: 0.08, Mutate: func(c *orion.Config) { c.Sim.Arbiter = orion.QueuingArbiter }},
			{Name: "with leakage", Rate: 0.08, Mutate: func(c *orion.Config) { c.Sim.IncludeLeakage = true }},
		},
		{{Name: "plain links", Rate: 0.02}, {Name: "DVS links", Rate: 0.02, Mutate: dvs}},
		{{Name: "plain links", Rate: 0.10}, {Name: "DVS links", Rate: 0.10, Mutate: dvs}},
	}
	for _, group := range groups {
		for i := range group {
			v := &group[i]
			cfg := orion.OnChip4x4(orion.VC16(), v.Rate)
			opt.apply(&cfg)
			if v.Mutate != nil {
				v.Mutate(&cfg)
			}
			v.Result, v.Err = orion.Run(cfg)
		}
	}
	return groups
}

// Report holds the results of one run of the experiments; a figure that
// was not run leaves its fields nil. Fig5c is VC64's point at fig5cRate,
// and Fig7XB and Fig7CB are the uniform-traffic points at fig7cRate.
type Report struct {
	Walkthrough                *orion.EnergyReport
	Fig5                       []Curve
	Fig5c                      *RatePoint
	Fig6Uniform, Fig6Broadcast *orion.Result
	Fig7, Fig7Broadcast        []Curve
	Fig7XB, Fig7CB             *RatePoint
	Ablations                  [][]Variant
}

// Figures names the figure sets Run accepts besides "all", in run order.
var Figures = []string{"walkthrough", "5", "6", "7", "ablations"}

// Run runs one figure set of Figures, or every one for "all", at the
// default rates, and stops at the first failure.
func Run(opt Options, fig string) (r *Report, err error) {
	r = &Report{}
	want := func(name string) bool { return err == nil && (fig == "all" || fig == name) }
	if want("walkthrough") {
		r.Walkthrough, err = Walkthrough()
	}
	if want("5") {
		r.Fig5, err = Figure5(opt, nil)
		r.Fig5c = pointAt(r.Fig5, "VC64", fig5cRate)
	}
	if want("6") {
		r.Fig6Uniform, r.Fig6Broadcast, err = Figure6(opt)
	}
	if want("7") {
		if r.Fig7, err = Figure7(opt, nil, false); err == nil {
			r.Fig7Broadcast, err = Figure7(opt, nil, true)
		}
		r.Fig7XB, r.Fig7CB = pointAt(r.Fig7, "XB", fig7cRate), pointAt(r.Fig7, "CB", fig7cRate)
	}
	if want("ablations") {
		r.Ablations = runAblations(opt)
	}
	return r, err
}

// pointAt returns the labelled curve's point at rate, or nil.
func pointAt(curves []Curve, label string, rate float64) *RatePoint {
	for i := range curves {
		for j, p := range curves[i].Points {
			if curves[i].Label == label && p.Rate == rate {
				return &curves[i].Points[j]
			}
		}
	}
	return nil
}
