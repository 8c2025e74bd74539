package orion

import "fmt"

// This file parameterises the paper's evaluation (Section 4) so the
// figures can be regenerated from code: Figure 5 (wormhole vs
// virtual-channel routers, on-chip), Figure 6 (uniform vs broadcast power
// maps) and Figure 7 (central-buffered vs crossbar routers, chip-to-chip).
// cmd/orion-exp prints the resulting tables; bench_test.go wraps each as a
// benchmark; EXPERIMENTS.md records paper-vs-measured shapes.

// ExperimentOptions trades fidelity for speed. The zero value uses the
// paper's protocol (1000 warm-up cycles, 10,000 sample packets).
type ExperimentOptions struct {
	// SamplePackets overrides the measurement sample size.
	SamplePackets int
	// MaxCycles bounds each run.
	MaxCycles int64
	// Seed seeds the workloads.
	Seed int64
}

// Apply folds the options into a configuration (exported for tools that
// build their own experiment variations, e.g. cmd/orion-exp's ablations).
func (o ExperimentOptions) Apply(cfg *Config) { o.apply(cfg) }

func (o ExperimentOptions) apply(cfg *Config) {
	if o.SamplePackets > 0 {
		cfg.Sim.SamplePackets = o.SamplePackets
	}
	if o.MaxCycles > 0 {
		cfg.Sim.MaxCycles = o.MaxCycles
	}
	cfg.Traffic.Seed = o.Seed
}

// RatePoint is one injection-rate measurement of a latency/power curve.
type RatePoint struct {
	// Rate is the offered load in packets/cycle/node.
	Rate float64
	// Latency is average packet latency in cycles.
	Latency float64
	// PowerW is total network power in watts.
	PowerW float64
	// Throughput is accepted flits/node/cycle.
	Throughput float64
	// Breakdown splits PowerW by component.
	Breakdown PowerBreakdown
	// Failed marks rates whose run aborted (driven too far past
	// saturation for every sample packet to drain within MaxCycles).
	Failed bool
}

// ConfigCurve is one router configuration's sweep, e.g. one line of
// Figure 5(a)/(b).
type ConfigCurve struct {
	// Label names the configuration (WH64, VC16, ...).
	Label string
	// ZeroLoad is the contention-free latency in cycles.
	ZeroLoad float64
	// SaturationRate is the lowest rate whose latency exceeds twice
	// ZeroLoad (Section 4.1); valid when Saturated.
	SaturationRate float64
	Saturated      bool
	// Points are the swept measurements in rate order.
	Points []RatePoint
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

// Fig5Configs returns the four router configurations of Section 4.2 in
// presentation order.
func Fig5Configs() []struct {
	Label  string
	Router RouterConfig
} {
	return []struct {
		Label  string
		Router RouterConfig
	}{
		{"WH64", WH64()},
		{"VC16", VC16()},
		{"VC64", VC64()},
		{"VC128", VC128()},
	}
}

// sweepCurve measures one configuration across rates, tolerating
// over-saturated failures (recorded as Failed points).
func sweepCurve(label string, base Config, rates []float64) (ConfigCurve, error) {
	curve := ConfigCurve{Label: label}
	zl, err := ZeroLoadLatency(base)
	if err != nil {
		return curve, fmt.Errorf("%s zero-load: %w", label, err)
	}
	curve.ZeroLoad = zl
	// Per-point failures become Failed points; the curve keeps the rest.
	results, err := Sweep(base, rates)
	for i, res := range results {
		pt := RatePoint{Rate: rates[i]}
		if res == nil {
			pt.Failed = true
		} else {
			pt.Latency = res.AvgLatency
			pt.PowerW = res.TotalPowerW
			pt.Throughput = res.AcceptedFlitsPerNodeCycle
			pt.Breakdown = res.Breakdown
		}
		curve.Points = append(curve.Points, pt)
	}
	curve.SaturationRate, curve.Saturated, _ = saturation(rates, results, err, zl)
	return curve, nil
}

// Figure5 sweeps the four on-chip configurations over the given rates
// (Figures 5(a) latency and 5(b) power).
func Figure5(opt ExperimentOptions, rates []float64) ([]ConfigCurve, error) {
	if rates == nil {
		rates = Fig5Rates()
	}
	var curves []ConfigCurve
	for _, c := range Fig5Configs() {
		base := OnChip4x4(c.Router, 0)
		opt.apply(&base)
		curve, err := sweepCurve(c.Label, base, rates)
		if err != nil {
			return curves, err
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// Figure5Breakdown measures VC64's component power split at the given rate
// (Figure 5(c)).
func Figure5Breakdown(opt ExperimentOptions, rate float64) (*Result, error) {
	cfg := OnChip4x4(VC64(), rate)
	opt.apply(&cfg)
	return Run(cfg)
}

// Figure6 runs the workload comparison of Section 4.3 on the VC16-style
// router (2 VCs, 8-flit buffers): uniform random traffic with a total
// network injection of 0.2 packets/cycle (0.0125 per node) versus
// broadcast from node (1,2) at 0.2 packets/cycle. Both results carry
// per-node power for the Figure 6 spatial maps.
func Figure6(opt ExperimentOptions) (uniform, broadcast *Result, err error) {
	u := OnChip4x4(VC16(), 0.2/16)
	opt.apply(&u)
	uniform, err = Run(u)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 6 uniform: %w", err)
	}

	b := OnChip4x4(VC16(), 0.2)
	b.Traffic.Pattern = BroadcastFrom(BroadcastNode12)
	opt.apply(&b)
	broadcast, err = Run(b)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 6 broadcast: %w", err)
	}
	return uniform, broadcast, nil
}

// Figure7 sweeps the chip-to-chip XB and CB configurations (Section 4.4)
// under uniform random traffic (Figures 7(a) latency and 7(b) power) or
// broadcast traffic from node (1,2) (Figures 7(d) and 7(e)).
func Figure7(opt ExperimentOptions, rates []float64, broadcast bool) ([]ConfigCurve, error) {
	if rates == nil {
		rates = Fig7Rates()
	}
	cases := []struct {
		Label  string
		Router RouterConfig
	}{
		{"XB", XB()},
		{"CB", CB()},
	}
	var curves []ConfigCurve
	for _, c := range cases {
		base := ChipToChip4x4(c.Router, 0)
		if broadcast {
			base.Traffic.Pattern = BroadcastFrom(BroadcastNode12)
		}
		opt.apply(&base)
		curve, err := sweepCurve(c.Label, base, rates)
		if err != nil {
			return curves, err
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// Figure7Breakdowns measures the XB and CB component power splits at the
// given rate under uniform random traffic (Figures 7(c) and 7(f)).
func Figure7Breakdowns(opt ExperimentOptions, rate float64) (xb, cb *Result, err error) {
	x := ChipToChip4x4(XB(), rate)
	opt.apply(&x)
	xb, err = Run(x)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 7 XB: %w", err)
	}
	c := ChipToChip4x4(CB(), rate)
	opt.apply(&c)
	cb, err = Run(c)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 7 CB: %w", err)
	}
	return xb, cb, nil
}

// Walkthrough returns the component energy report for the Section 3.3
// example router: 5 ports, 4-flit buffers, 32-bit flits, 5×5 crossbar and
// 4:1 matrix arbiters, with 3 mm on-chip links.
func Walkthrough() (*EnergyReport, error) {
	cfg := Config{
		Width: 4, Height: 4,
		Router:  RouterConfig{Kind: Wormhole, BufferDepth: 4, FlitBits: 32},
		Link:    LinkConfig{LengthMm: 3},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: 0.1, PacketLength: 5},
	}
	return ComponentEnergies(cfg)
}
