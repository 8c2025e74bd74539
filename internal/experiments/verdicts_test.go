package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"orion"
)

// Predicate is one checked claim over a Report: Check returns nil when
// the claim holds and an error saying why when it does not (including
// when the figure it reads was not run).
type Predicate struct {
	Name  string
	Check func(*Report) error
}

// Verdict is one row of EXPERIMENTS.md's Summary: what was reproduced,
// and the predicates that check it. A predicate that asserts a
// documented deviation from the paper fails when the deviation closes.
type Verdict struct {
	Experiment, Verdict string
	Predicates          []Predicate
}

// Summary is the verdict table of EXPERIMENTS.md, in document order.
var Summary = []Verdict{
	{"§3.3 E_flit decomposition", "reproduced",
		[]Predicate{walkthroughSums, arbitrationMinor}},
	{"Fig 5(a) latency curves", "partially: VC64/VC128 outlast VC16 ✓ and VC64 outlasts WH64 ✓; WH64 stronger than the paper's (no VC16/WH64 throughput crossover)",
		[]Predicate{vcOutlastVC16, vc64OutlastsWH64, noWH64VC16Crossover}},
	{"Fig 5(b) power curves", "partially: VC16 < WH64 ✓, VC128 > VC64 ✓, flattening after saturation ✓; VC64 tracks VC16 rather than WH64",
		[]Predicate{vc16PowerBelowWH64, vc128PowerAboveVC64, powerFlattens, vc64PowerTracksVC16}},
	{"Fig 5(c) breakdown", "shape reproduced (router datapath dominates, arbiter < 1 %, link share ≈ paper's 15 %); buffer/crossbar split leans to crossbar",
		[]Predicate{datapathDominates, arbiterUnder1Pct, onChipLinkShare, crossbarOutweighsBuffers}},
	{"Fig 6(a) uniform map", "reproduced (flat)",
		[]Predicate{uniformFlat}},
	{"Fig 6(b) broadcast map", "reproduced incl. y-first routing asymmetry",
		[]Predicate{sourceHottest, sourceOverMean5, decaysWithDistance, yFirstAsymmetry, tiesBreakPositive, columnsUniform}},
	{"Fig 7(a) latency", "reproduced (CB saturates first, 2 vs 5 fabric ports)",
		[]Predicate{cbSaturatesFirst}},
	{"Fig 7(b) power", "reproduced (CB > XB; far more on router-only power)",
		[]Predicate{cbPowerAboveXB, cbRouterPower5x}},
	{"Fig 7(c)/(f) breakdowns", "reproduced (links dominate; CB's router power ≈ all central buffer)",
		[]Predicate{linksDominateC2C, centralBufferDominatesCB, xbInputBuffersLead}},
	{"Fig 7(d)/(e) broadcast", "(e) power ordering reproduced; (d) CB advantage not reproduced",
		[]Predicate{cbBroadcastPowerAboveXB, noCBBroadcastWin}},
}

var errNotRun = errors.New("figure not run")

// findCurve returns the curve with the given label, or nil.
func findCurve(curves []Curve, label string) *Curve {
	for i := range curves {
		if curves[i].Label == label {
			return &curves[i]
		}
	}
	return nil
}

// curves looks up labelled curves, failing when any is missing.
func curves(cs []Curve, labels ...string) ([]*Curve, error) {
	out := make([]*Curve, len(labels))
	for i, l := range labels {
		if out[i] = findCurve(cs, l); out[i] == nil {
			return nil, fmt.Errorf("%s: %w", l, errNotRun)
		}
	}
	return out, nil
}

// latency is a point's latency, with a failed (over-saturated) point
// counting as infinitely slow.
func latency(p RatePoint) float64 {
	if p.Failed {
		return math.Inf(1)
	}
	return p.Latency
}

// everyRate checks ok at every rate both curves measured.
func everyRate(a, b *Curve, what string, ok func(a, b RatePoint) bool) error {
	for i, pa := range a.Points {
		pb := b.Points[i]
		if pa.Failed || pb.Failed {
			continue
		}
		if !ok(pa, pb) {
			return fmt.Errorf("%s fails at rate %.2f", what, pa.Rate)
		}
	}
	return nil
}

// powerOrder is a predicate that curve lo draws less power than curve hi
// at every rate.
func powerOrder(name string, fig func(*Report) []Curve, lo, hi string) Predicate {
	return Predicate{name, func(r *Report) error {
		c, err := curves(fig(r), lo, hi)
		if err != nil {
			return err
		}
		return everyRate(c[0], c[1], name, func(a, b RatePoint) bool { return a.PowerW < b.PowerW })
	}}
}

func fig5(r *Report) []Curve          { return r.Fig5 }
func fig7(r *Report) []Curve          { return r.Fig7 }
func fig7Broadcast(r *Report) []Curve { return r.Fig7Broadcast }

// check is a predicate over one result or point of the report.
func check[T any](name string, get func(*Report) *T, ok func(*T) bool) Predicate {
	return Predicate{name, func(r *Report) error {
		x := get(r)
		if x == nil {
			return errNotRun
		}
		if !ok(x) {
			return errors.New("does not hold")
		}
		return nil
	}}
}

var (
	walkthroughSums = Predicate{"the five terms sum to E_flit", func(r *Report) error {
		rep := r.Walkthrough
		if rep == nil {
			return errNotRun
		}
		sum := rep.BufferWriteAvgJ + rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ +
			rep.BufferReadJ + rep.CrossbarTraversalAvgJ + rep.LinkTraversalAvgJ
		if math.Abs(sum-rep.FlitEnergyJ) > 1e-12*rep.FlitEnergyJ {
			return fmt.Errorf("terms sum to %g J, E_flit is %g J", sum, rep.FlitEnergyJ)
		}
		return nil
	}}
	arbitrationMinor = Predicate{"E_arb < 5 % of E_flit", func(r *Report) error {
		rep := r.Walkthrough
		if rep == nil {
			return errNotRun
		}
		if earb := rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ; earb >= 0.05*rep.FlitEnergyJ {
			return fmt.Errorf("E_arb is %.1f %% of E_flit", 100*earb/rep.FlitEnergyJ)
		}
		return nil
	}}

	vcOutlastVC16 = Predicate{"VC64 and VC128 latency < VC16 past VC16's saturation", func(r *Report) error {
		c, err := curves(r.Fig5, "VC16", "VC64", "VC128")
		if err != nil {
			return err
		}
		if !c[0].Saturated {
			return errors.New("VC16 does not saturate in the swept range")
		}
		past := 0
		for i, p := range c[0].Points {
			if p.Rate <= c[0].SaturationRate {
				continue
			}
			past++
			for _, vc := range c[1:] {
				if latency(vc.Points[i]) >= latency(p) {
					return fmt.Errorf("%s is not faster than VC16 at rate %.2f", vc.Label, p.Rate)
				}
			}
		}
		if past == 0 {
			return errors.New("no rate past VC16's saturation")
		}
		return nil
	}}
	vc64OutlastsWH64 = Predicate{"VC64 latency < WH64 at the highest rate", func(r *Report) error {
		c, err := curves(r.Fig5, "VC64", "WH64")
		if err != nil {
			return err
		}
		last := len(c[0].Points) - 1
		if latency(c[0].Points[last]) >= latency(c[1].Points[last]) {
			return fmt.Errorf("VC64 is not faster than WH64 at rate %.2f", c[0].Points[last].Rate)
		}
		return nil
	}}
	// Deviation: the paper's VC16 outlasts WH64; here WH64 is faster at
	// every rate.
	noWH64VC16Crossover = Predicate{"deviation: WH64 latency < VC16 at every rate", func(r *Report) error {
		c, err := curves(r.Fig5, "WH64", "VC16")
		if err != nil {
			return err
		}
		for i, p := range c[0].Points {
			if latency(p) >= latency(c[1].Points[i]) {
				return fmt.Errorf("VC16 is not slower than WH64 at rate %.2f: the paper's crossover appears", p.Rate)
			}
		}
		return nil
	}}

	vc16PowerBelowWH64  = powerOrder("VC16 power < WH64 at every rate", fig5, "VC16", "WH64")
	vc128PowerAboveVC64 = powerOrder("VC128 power > VC64 at every rate", fig5, "VC64", "VC128")
	powerFlattens       = Predicate{"power flattens after saturation (last rate step < ¼ of the first)", func(r *Report) error {
		if len(r.Fig5) == 0 {
			return errNotRun
		}
		for _, c := range r.Fig5 {
			n := len(c.Points)
			if !c.Saturated || n < 3 || c.Points[n-1].Rate <= c.SaturationRate {
				return fmt.Errorf("%s does not saturate below the top rate", c.Label)
			}
			first := c.Points[1].PowerW - c.Points[0].PowerW
			last := c.Points[n-1].PowerW - c.Points[n-2].PowerW
			if c.Points[n-1].Failed || c.Points[n-2].Failed || last >= first/4 {
				return fmt.Errorf("%s power still climbs at the top rate", c.Label)
			}
		}
		return nil
	}}
	// Deviation: the paper's VC64 ≈ WH64 (equal buffer capacity); here
	// buffer energy follows bank rows, so VC64 (8-row banks) tracks VC16.
	vc64PowerTracksVC16 = Predicate{"deviation: VC64 power nearer VC16 than WH64 up to VC16's saturation", func(r *Report) error {
		c, err := curves(r.Fig5, "VC64", "VC16", "WH64")
		if err != nil {
			return err
		}
		if !c[1].Saturated {
			return errors.New("VC16 does not saturate in the swept range")
		}
		for i, p := range c[0].Points {
			if p.Rate > c[1].SaturationRate {
				break
			}
			if math.Abs(p.PowerW-c[1].Points[i].PowerW) >= math.Abs(p.PowerW-c[2].Points[i].PowerW) {
				return fmt.Errorf("VC64 is nearer WH64 at rate %.2f", p.Rate)
			}
		}
		return nil
	}}

	fig5c             = func(r *Report) *RatePoint { return r.Fig5c }
	datapathDominates = check("buffers + crossbar ≥ 75 % of VC64 power", fig5c, func(p *RatePoint) bool {
		return p.Breakdown.BufferW+p.Breakdown.CrossbarW >= 0.75*p.PowerW
	})
	arbiterUnder1Pct = check("arbiters < 1 % of VC64 power", fig5c, func(p *RatePoint) bool { return p.Breakdown.ArbiterW < 0.01*p.PowerW })
	onChipLinkShare  = check("links 10–20 % of VC64 power", fig5c, func(p *RatePoint) bool {
		return p.Breakdown.LinkW >= 0.10*p.PowerW && p.Breakdown.LinkW <= 0.20*p.PowerW
	})
	crossbarOutweighsBuffers = check("deviation: crossbar > buffers", fig5c, func(p *RatePoint) bool { return p.Breakdown.CrossbarW > p.Breakdown.BufferW })

	fig6u         = func(r *Report) *orion.Result { return r.Fig6Uniform }
	fig6b         = func(r *Report) *orion.Result { return r.Fig6Broadcast }
	uniformFlat   = check("uniform max ÷ min node power ≤ 1.25", fig6u, func(x *orion.Result) bool { lo, hi := minMax(x.NodePowerW); return hi <= 1.25*lo })
	sourceHottest = check("source hotter than every other node", fig6b, func(x *orion.Result) bool {
		for n, w := range x.NodePowerW {
			if n != orion.BroadcastNode12 && w >= x.NodePowerW[orion.BroadcastNode12] {
				return false
			}
		}
		return true
	})
	sourceOverMean5    = check("source ≥ 5× the network mean", fig6b, func(x *orion.Result) bool { return sourceOverMean(x) >= 5 })
	decaysWithDistance = check("mean node power falls with distance from the source", fig6b, func(x *orion.Result) bool {
		m := meanByDistance(x.NodePowerW)
		for d := 1; d < len(m); d++ {
			if m[d] >= m[d-1] {
				return false
			}
		}
		return true
	})
	yFirstAsymmetry = check("(1,1) and (1,3) hotter than (0,2) and (2,2)", fig6b, func(x *orion.Result) bool {
		p := x.NodePowerW
		return math.Min(p[node(1, 1)], p[node(1, 3)]) > math.Max(p[node(0, 2)], p[node(2, 2)])
	})
	columnsUniform = check("columns x≠1 uniform within 5 %", fig6b, func(x *orion.Result) bool { return columnSpread(x.NodePowerW) <= 0.05 })
	// Equal-distance ties break toward +y and +x.
	tiesBreakPositive = check("(1,3) hotter than (1,1), column x=2 than x=0 and x=3", fig6b, func(x *orion.Result) bool {
		p := x.NodePowerW
		return p[node(1, 3)] > p[node(1, 1)] && columnMean(p, 2) > math.Max(columnMean(p, 0), columnMean(p, 3))
	})

	cbSaturatesFirst = Predicate{"CB saturates before XB", func(r *Report) error {
		c, err := curves(r.Fig7, "XB", "CB")
		if err != nil {
			return err
		}
		if !c[1].Saturated || (c[0].Saturated && c[0].SaturationRate <= c[1].SaturationRate) {
			return errors.New("CB does not saturate before XB")
		}
		return nil
	}}
	cbPowerAboveXB  = powerOrder("CB power > XB at every rate", fig7, "XB", "CB")
	cbRouterPower5x = Predicate{"CB router-only power ≥ 5× XB at every rate", func(r *Report) error {
		c, err := curves(r.Fig7, "XB", "CB")
		if err != nil {
			return err
		}
		return everyRate(c[0], c[1], "CB router-only power ≥ 5× XB", func(x, cb RatePoint) bool { return routerW(cb) >= 5*routerW(x) })
	}}

	fig7xb           = func(r *Report) *RatePoint { return r.Fig7XB }
	fig7cb           = func(r *Report) *RatePoint { return r.Fig7CB }
	linksDominateC2C = Predicate{"links ≥ 95 % of chip-to-chip power", func(r *Report) error {
		links95 := func(p *RatePoint) bool { return p.Breakdown.LinkW >= 0.95*p.PowerW }
		if err := check("", fig7xb, links95).Check(r); err != nil {
			return fmt.Errorf("XB: %w", err)
		}
		if err := check("", fig7cb, links95).Check(r); err != nil {
			return fmt.Errorf("CB: %w", err)
		}
		return nil
	}}
	centralBufferDominatesCB = check("central buffer ≥ 90 % of CB's router power", fig7cb, func(p *RatePoint) bool {
		return p.Breakdown.CentralBufferW >= 0.90*routerW(*p)
	})
	xbInputBuffersLead = check("input buffers lead XB's router power", fig7xb, func(p *RatePoint) bool {
		b := p.Breakdown
		return b.BufferW > b.CrossbarW && b.BufferW > b.ArbiterW
	})

	cbBroadcastPowerAboveXB = powerOrder("CB broadcast power > XB at every rate", fig7Broadcast, "XB", "CB")
	// Deviation: the paper's CB wins under broadcast; here the 16 VCs per
	// XB port leave no head-of-line blocking for it to win back.
	noCBBroadcastWin = Predicate{"deviation: CB broadcast latency never 1 % below XB", func(r *Report) error {
		c, err := curves(r.Fig7Broadcast, "XB", "CB")
		if err != nil {
			return err
		}
		for i, p := range c[1].Points {
			if latency(p) < 0.99*latency(c[0].Points[i]) {
				return fmt.Errorf("CB beats XB under broadcast at rate %.2f", p.Rate)
			}
		}
		return nil
	}}
)

// summaryBlock renders the Summary table: each verdict with its
// predicates, ✓ for one that holds on r and ✗ for one that does not.
func summaryBlock(r *Report) Block {
	var rows [][]string
	for _, v := range Summary {
		var checks []string
		for _, p := range v.Predicates {
			mark := "✓"
			if p.Check(r) != nil {
				mark = "✗"
			}
			checks = append(checks, p.Name+" "+mark)
		}
		rows = append(rows, []string{v.Experiment, v.Verdict, strings.Join(checks, "; ")})
	}
	return Block{"summary", table([]string{"Experiment", "Verdict", "Checked predicates"}, rows)}
}

// node is the index of (x, y) on the 4×4 torus.
func node(x, y int) int { return y*4 + x }

func columnMean(p []float64, x int) float64 {
	return (p[node(x, 0)] + p[node(x, 1)] + p[node(x, 2)] + p[node(x, 3)]) / 4
}

// columnSpread is the largest (max − min) ÷ min within a column other than
// the broadcast source's.
func columnSpread(p []float64) float64 {
	var spread float64
	for _, x := range []int{0, 2, 3} {
		lo, hi := minMax([]float64{p[node(x, 0)], p[node(x, 1)], p[node(x, 2)], p[node(x, 3)]})
		spread = math.Max(spread, (hi-lo)/lo)
	}
	return spread
}

// meanByDistance averages node power by torus hop distance from the
// broadcast source (1,2).
func meanByDistance(p []float64) []float64 {
	ring := func(a, b int) int { d := (a - b + 4) % 4; return min(d, 4-d) }
	sums, counts := make([]float64, 5), make([]int, 5)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			d := ring(x, 1) + ring(y, 2)
			sums[d] += p[node(x, y)]
			counts[d]++
		}
	}
	for d := range sums {
		sums[d] /= float64(counts[d])
	}
	return sums
}
