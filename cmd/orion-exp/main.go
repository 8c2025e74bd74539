// Command orion-exp regenerates every figure of the paper's evaluation
// (Section 4): Figure 5 (wormhole vs virtual-channel on-chip routers),
// Figure 6 (uniform vs broadcast power maps), Figure 7 (crossbar vs
// central-buffered chip-to-chip routers), and the Section 3.3 walkthrough
// energies. Output is plain text tables, one series per row, mirroring the
// paper's axes. EXPERIMENTS.md is written from this tool's output.
//
// Usage:
//
//	orion-exp [-fig all|walkthrough|5|6|7|ablations] [-samples N] [-seed N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// The default sample size follows the paper (10,000 packets per run);
// -samples 2000 gives a quick pass with the same shapes. -cpuprofile and
// -memprofile write runtime/pprof profiles of the whole run for analysis
// with `go tool pprof`.
//
// Exit status: 0 success; 1 when an experiment fails; 2 bad flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"orion"
	"orion/internal/prof"
)

var (
	figFlag     = flag.String("fig", "all", "which figure to run: all, walkthrough, 5, 6, 7, ablations")
	samplesFlag = flag.Int("samples", 0, "sample packets per run (0 = paper's 10000)")
	seedFlag    = flag.Int64("seed", 1, "workload seed")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile to this file")
)

func main() {
	flag.Parse()
	if !slices.Contains([]string{"all", "walkthrough", "5", "6", "7", "ablations"}, *figFlag) {
		fmt.Fprintf(os.Stderr, "orion-exp: -fig: unknown figure %q (want all, walkthrough, 5, 6, 7 or ablations)\n", *figFlag)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion-exp: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "orion-exp: %v\n", err)
			os.Exit(1)
		}
	}()
	opt := orion.ExperimentOptions{SamplePackets: *samplesFlag, Seed: *seedFlag}

	start := time.Now()
	run := func(name string, f func(orion.ExperimentOptions) error) {
		if *figFlag != "all" && *figFlag != name {
			return
		}
		if err := f(opt); err != nil {
			fmt.Fprintf(os.Stderr, "orion-exp: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("walkthrough", walkthrough)
	run("5", figure5)
	run("6", figure6)
	run("7", figure7)
	run("ablations", ablations)
	fmt.Printf("\n(total %v)\n", time.Since(start).Round(time.Millisecond))
}

// ablations regenerates the design-choice comparisons of EXPERIMENTS.md:
// deadlock avoidance, pipeline speculation, routing tie-break, crossbar
// implementation, activity tracking and link DVS.
func ablations(opt orion.ExperimentOptions) error {
	fmt.Println("\n== Ablations (VC16 on-chip unless noted) ==")
	at := func(rate float64, mutate func(*orion.Config)) (*orion.Result, error) {
		cfg := orion.OnChip4x4(orion.VC16(), rate)
		opt.Apply(&cfg)
		if mutate != nil {
			mutate(&cfg)
		}
		return orion.Run(cfg)
	}

	fmt.Println("-- deadlock avoidance / pipeline / ties: latency at 0.14 --")
	for _, c := range []struct {
		name   string
		mutate func(*orion.Config)
	}{
		{"bubble (default)", nil},
		{"dateline VCs", func(c *orion.Config) { c.Sim.Deadlock = orion.DeadlockDateline }},
		{"speculative pipeline", func(c *orion.Config) { c.Router.Speculative = true }},
		{"balanced tie routing", func(c *orion.Config) { c.BalancedTieRouting = true }},
	} {
		res, err := at(0.14, c.mutate)
		if err != nil {
			fmt.Printf("   %-22s FAILED (%v)\n", c.name, err)
			continue
		}
		fmt.Printf("   %-22s latency %7.1f cycles, power %6.2f W\n", c.name, res.AvgLatency, res.TotalPowerW)
	}

	fmt.Println("-- power models: total power at 0.08 --")
	for _, c := range []struct {
		name   string
		mutate func(*orion.Config)
	}{
		{"matrix crossbar (default)", nil},
		{"mux-tree crossbar", func(c *orion.Config) { c.Sim.MuxTreeCrossbar = true }},
		{"fixed α=0.5 activity", func(c *orion.Config) { c.Sim.FixedActivity = true }},
		{"round-robin arbiters", func(c *orion.Config) { c.Sim.Arbiter = orion.RoundRobinArbiter }},
		{"with leakage", func(c *orion.Config) { c.Sim.IncludeLeakage = true }},
	} {
		res, err := at(0.08, c.mutate)
		if err != nil {
			fmt.Printf("   %-26s FAILED (%v)\n", c.name, err)
			continue
		}
		extra := ""
		if res.StaticPowerW > 0 {
			extra = fmt.Sprintf(" (static %.4g W)", res.StaticPowerW)
		}
		fmt.Printf("   %-26s %7.3f W%s\n", c.name, res.TotalPowerW, extra)
	}

	fmt.Println("-- link DVS: link power and latency at 0.02 and 0.10 --")
	for _, rate := range []float64{0.02, 0.10} {
		plain, err := at(rate, nil)
		if err != nil {
			return err
		}
		dvs, err := at(rate, func(c *orion.Config) { c.Link.DVS = &orion.DVSPolicy{} })
		if err != nil {
			return err
		}
		fmt.Printf("   rate %.2f: link %6.3f W -> %6.3f W (%.0f%% saving), latency %+.1f cycles\n",
			rate, plain.Breakdown.LinkW, dvs.Breakdown.LinkW,
			100*(1-dvs.Breakdown.LinkW/plain.Breakdown.LinkW),
			dvs.AvgLatency-plain.AvgLatency)
	}
	return nil
}

func walkthrough(orion.ExperimentOptions) error {
	rep, err := orion.Walkthrough()
	if err != nil {
		return err
	}
	fmt.Println("== Section 3.3 walkthrough: E_flit through a 5-port wormhole router ==")
	fmt.Println("   (4-flit buffers, 32-bit flits, 5x5 crossbar, 4:1 matrix arbiter, 3mm link)")
	earb := rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ
	fmt.Printf("   E_wrt  = %8.3f pJ (buffer write)\n", rep.BufferWriteAvgJ*1e12)
	fmt.Printf("   E_arb  = %8.3f pJ (arbitration incl. crossbar control)\n", earb*1e12)
	fmt.Printf("   E_read = %8.3f pJ (buffer read)\n", rep.BufferReadJ*1e12)
	fmt.Printf("   E_xb   = %8.3f pJ (crossbar traversal)\n", rep.CrossbarTraversalAvgJ*1e12)
	fmt.Printf("   E_link = %8.3f pJ (link traversal)\n", rep.LinkTraversalAvgJ*1e12)
	fmt.Printf("   E_flit = %8.3f pJ\n", rep.FlitEnergyJ*1e12)
	return nil
}

func printCurves(curves []orion.ConfigCurve, what string) {
	fmt.Printf("   %-6s", "rate:")
	for _, pt := range curves[0].Points {
		fmt.Printf(" %7.2f", pt.Rate)
	}
	fmt.Println()
	for _, c := range curves {
		fmt.Printf("   %-6s", c.Label)
		for _, pt := range c.Points {
			if pt.Failed {
				fmt.Printf(" %7s", "--")
				continue
			}
			switch what {
			case "latency":
				fmt.Printf(" %7.1f", pt.Latency)
			case "power":
				fmt.Printf(" %7.2f", pt.PowerW)
			case "throughput":
				fmt.Printf(" %7.3f", pt.Throughput)
			}
		}
		if what == "latency" {
			if c.Saturated {
				fmt.Printf("   (zero-load %.1f, saturation %.2f)", c.ZeroLoad, c.SaturationRate)
			} else {
				fmt.Printf("   (zero-load %.1f, no saturation in range)", c.ZeroLoad)
			}
		}
		fmt.Println()
	}
}

func printBreakdown(label string, res *orion.Result) {
	b := res.Breakdown
	t := res.TotalPowerW
	fmt.Printf("   %-5s total %8.3f W | buffer %5.1f%%  crossbar %5.1f%%  arbiter %5.2f%%  link %5.1f%%  central-buffer %5.1f%%\n",
		label, t, 100*b.BufferW/t, 100*b.CrossbarW/t, 100*b.ArbiterW/t, 100*b.LinkW/t, 100*b.CentralBufferW/t)
}

func figure5(opt orion.ExperimentOptions) error {
	fmt.Println("\n== Figure 5: on-chip 4x4 torus, 256-bit flits, 2 GHz, uniform random ==")
	curves, err := orion.Figure5(opt, nil)
	if err != nil {
		return err
	}
	fmt.Println("-- 5(a) average packet latency (cycles) --")
	printCurves(curves, "latency")
	fmt.Println("-- 5(b) total network power (W) --")
	printCurves(curves, "power")

	fmt.Println("-- 5(c) VC64 average power breakdown at rate 0.10 --")
	res, err := orion.Figure5Breakdown(opt, 0.10)
	if err != nil {
		return err
	}
	printBreakdown("VC64", res)
	return nil
}

func figure6(opt orion.ExperimentOptions) error {
	fmt.Println("\n== Figure 6: power spatial distribution, VC16 on-chip 4x4 torus ==")
	uniform, broadcast, err := orion.Figure6(opt)
	if err != nil {
		return err
	}
	fmt.Println("-- 6(a) uniform random, total 0.2 pkt/cycle (W per node, (0,0) bottom-left) --")
	m, err := orion.HeatmapString(uniform, 4, 4)
	if err != nil {
		return err
	}
	fmt.Print(indent(m))
	fmt.Println("-- 6(b) broadcast from node (1,2) at 0.2 pkt/cycle --")
	m, err = orion.HeatmapString(broadcast, 4, 4)
	if err != nil {
		return err
	}
	fmt.Print(indent(m))
	return nil
}

func figure7(opt orion.ExperimentOptions) error {
	fmt.Println("\n== Figure 7: chip-to-chip 4x4 torus, 32-bit flits, 1 GHz, 3 W links ==")
	for _, bc := range []bool{false, true} {
		curves, err := orion.Figure7(opt, nil, bc)
		if err != nil {
			return err
		}
		name := "uniform random (7a/7b)"
		if bc {
			name = "broadcast from (1,2) (7d/7e)"
		}
		fmt.Printf("-- latency (cycles), %s --\n", name)
		printCurves(curves, "latency")
		fmt.Printf("-- total network power (W), %s --\n", name)
		printCurves(curves, "power")
	}

	fmt.Println("-- 7(c)/7(f) component breakdowns at rate 0.06, uniform random --")
	xb, cb, err := orion.Figure7Breakdowns(opt, 0.06)
	if err != nil {
		return err
	}
	printBreakdown("XB", xb)
	printBreakdown("CB", cb)
	return nil
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "   " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
