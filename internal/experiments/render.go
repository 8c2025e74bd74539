package experiments

import (
	"fmt"
	"math"
	"strings"

	"orion"
)

// Block is one rendered markdown block. EXPERIMENTS.md holds each between
// its marker lines, and cmd/orion-exp prints it the same way.
type Block struct {
	Name, Text string
}

// openMarker and closeMarker are the lines around a generated block.
func openMarker(name string) string  { return "<!-- orion-exp:" + name + " -->" }
func closeMarker(name string) string { return "<!-- /orion-exp:" + name + " -->" }

// Markdown joins blocks, each between its markers, separated by blank
// lines.
func Markdown(blocks []Block) string {
	var parts []string
	for _, b := range blocks {
		parts = append(parts, openMarker(b.Name)+"\n"+b.Text+closeMarker(b.Name)+"\n")
	}
	return strings.Join(parts, "\n")
}

// Blocks renders every figure the report holds, in document order.
func (r *Report) Blocks() []Block {
	var blocks []Block
	add := func(name string, tables ...string) {
		blocks = append(blocks, Block{name, strings.Join(tables, "\n")})
	}
	power := func(p RatePoint) float64 { return p.PowerW }
	if r.Walkthrough != nil {
		add("walkthrough", walkthroughTable(r.Walkthrough))
	}
	if r.Fig5 != nil {
		add("5a", latencyTables(r.Fig5)...)
		add("5b", rateTable(r.Fig5, "%.2f", power))
	}
	if p := r.Fig5c; p != nil {
		add("5c", breakdownTable([]string{"VC64"}, p), fmt.Sprintf("Router datapath (buffers + crossbar): %.1f %% of total power.\n",
			100*(p.Breakdown.BufferW+p.Breakdown.CrossbarW)/p.PowerW))
	}
	if r.Fig6Uniform != nil {
		lo, hi := minMax(r.Fig6Uniform.NodePowerW)
		add("6a", heatmap(r.Fig6Uniform), fmt.Sprintf("Node power spans %.4g–%.4g W: max ÷ min = %.3f.\n", lo, hi, hi/lo))
	}
	if r.Fig6Broadcast != nil {
		add("6b", heatmap(r.Fig6Broadcast), fmt.Sprintf("Source (1,2) ÷ network mean = %.2f×.\n", sourceOverMean(r.Fig6Broadcast)))
	}
	if r.Fig7 != nil {
		add("7a", latencyTables(r.Fig7)...)
		add("7b", rateTable(r.Fig7, "%.2f", power))
	}
	if r.Fig7XB != nil && r.Fig7CB != nil {
		xb, cb := routerW(*r.Fig7XB), routerW(*r.Fig7CB)
		add("7c/f", breakdownTable([]string{"XB", "CB"}, r.Fig7XB, r.Fig7CB), fmt.Sprintf(
			"Router-only power (links excluded): XB %.3f W, CB %.3f W; CB ÷ XB = %.1f×. The central buffer is %.1f %% of CB's router-only power.\n",
			xb, cb, cb/xb, 100*r.Fig7CB.Breakdown.CentralBufferW/cb))
	}
	if r.Fig7Broadcast != nil {
		add("7d", latencyTables(r.Fig7Broadcast)...)
		add("7e", rateTable(r.Fig7Broadcast, "%.2f", power))
	}
	if r.Ablations != nil {
		add("ablations", ablationTables(r.Ablations)...)
	}
	return blocks
}

// table renders a markdown table from a header and rows of cells.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	line(header)
	b.WriteString(strings.Repeat("|---", len(header)) + "|\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// rateTable renders one row per curve and one column per swept rate of
// value formatted by verb; a failed point prints as "—".
func rateTable(curves []Curve, verb string, value func(RatePoint) float64) string {
	header := []string{"rate"}
	for _, pt := range curves[0].Points {
		header = append(header, fmt.Sprintf("%.2f", pt.Rate))
	}
	var rows [][]string
	for _, c := range curves {
		row := []string{c.Label}
		for _, pt := range c.Points {
			cell := "—"
			if !pt.Failed {
				cell = fmt.Sprintf(verb, value(pt))
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return table(header, rows)
}

// latencyTables renders the latency curves (cycles) and each
// configuration's zero-load latency and saturation rate.
func latencyTables(curves []Curve) []string {
	var rows [][]string
	for _, c := range curves {
		sat := "none in range"
		if c.Saturated {
			sat = fmt.Sprintf("%.2f", c.SaturationRate)
		}
		rows = append(rows, []string{c.Label, fmt.Sprintf("%.1f", c.ZeroLoad), sat})
	}
	return []string{rateTable(curves, "%.1f", func(p RatePoint) float64 { return p.Latency }),
		table([]string{"config", "zero-load (cycles)", "saturation (2× zero-load)"}, rows)}
}

// routerW is a point's power without its links.
func routerW(p RatePoint) float64 { return p.PowerW - p.Breakdown.LinkW }

// breakdownTable renders each point's total power and component shares,
// one column per point.
func breakdownTable(labels []string, points ...*RatePoint) string {
	rows := [][]string{{"total"}}
	for _, p := range points {
		rows[0] = append(rows[0], fmt.Sprintf("%.3f W", p.PowerW))
	}
	for _, c := range []struct {
		name, verb string
		w          func(orion.PowerBreakdown) float64
	}{
		{"input buffers", "%.1f %%", func(b orion.PowerBreakdown) float64 { return b.BufferW }},
		{"crossbar", "%.1f %%", func(b orion.PowerBreakdown) float64 { return b.CrossbarW }},
		{"arbiters", "%.2f %%", func(b orion.PowerBreakdown) float64 { return b.ArbiterW }},
		{"links", "%.1f %%", func(b orion.PowerBreakdown) float64 { return b.LinkW }},
		{"central buffer", "%.1f %%", func(b orion.PowerBreakdown) float64 { return b.CentralBufferW }},
	} {
		row := []string{c.name}
		for _, p := range points {
			row = append(row, fmt.Sprintf(c.verb, 100*c.w(p.Breakdown)/p.PowerW))
		}
		rows = append(rows, row)
	}
	return table(append([]string{"component"}, labels...), rows)
}

func walkthroughTable(rep *orion.EnergyReport) string {
	var rows [][]string
	for _, t := range []struct {
		name string
		j    float64
	}{
		{"E_wrt (buffer write, α=0.5)", rep.BufferWriteAvgJ},
		{"E_arb (arbitration + crossbar control)", rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ},
		{"E_read (buffer read)", rep.BufferReadJ},
		{"E_xb (crossbar traversal)", rep.CrossbarTraversalAvgJ},
		{"E_link (link traversal)", rep.LinkTraversalAvgJ},
	} {
		rows = append(rows, []string{t.name, fmt.Sprintf("%.3f pJ", t.j*1e12), fmt.Sprintf("%.1f %%", 100*t.j/rep.FlitEnergyJ)})
	}
	rows = append(rows, []string{"**E_flit**", fmt.Sprintf("**%.3f pJ**", rep.FlitEnergyJ*1e12), ""})
	return table([]string{"term", "measured", "share"}, rows)
}

// heatmap renders per-node power (W) as a code block with (0,0) at the
// bottom left, like the paper's Figure 6 node labelling.
func heatmap(res *orion.Result) string {
	m, _ := orion.HeatmapString(res, 4, 4)
	return "```\n" + m + "```\n"
}

// ablationTables renders one table per ablation group, each variant with
// its change from the group's first.
func ablationTables(groups [][]Variant) []string {
	var tables []string
	for _, group := range groups {
		var rows [][]string
		base := group[0].Result
		for _, v := range group {
			res := v.Result
			if v.Err != nil || base == nil {
				rows = append(rows, []string{v.Name, fmt.Sprintf("failed: %v", v.Err)})
				continue
			}
			rows = append(rows, []string{v.Name, fmt.Sprintf("%.1f", res.AvgLatency), fmt.Sprintf("%.3f W", res.TotalPowerW),
				fmt.Sprintf("%.3f W", res.Breakdown.LinkW), fmt.Sprintf("%.4g W", res.StaticPowerW),
				fmt.Sprintf("%+.1f", res.AvgLatency-base.AvgLatency), fmt.Sprintf("%+.2f %%", 100*(res.TotalPowerW/base.TotalPowerW-1)),
				fmt.Sprintf("%+.0f %%", 100*(res.Breakdown.LinkW/base.Breakdown.LinkW-1))})
		}
		tables = append(tables, table([]string{fmt.Sprintf("at rate %.2f", group[0].Rate), "latency (cycles)", "total power",
			"link power", "static power", "Δ latency", "Δ total power", "Δ link power"}, rows))
	}
	return tables
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, w := range v {
		lo, hi = math.Min(lo, w), math.Max(hi, w)
	}
	return lo, hi
}

// sourceOverMean is the broadcast source's power over the network mean.
func sourceOverMean(res *orion.Result) float64 {
	var sum float64
	for _, w := range res.NodePowerW {
		sum += w
	}
	return res.NodePowerW[orion.BroadcastNode12] / (sum / float64(len(res.NodePowerW)))
}
