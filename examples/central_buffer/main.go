// Central-buffered routers — the paper's third case study (Section 4.4):
// evaluate a new microarchitectural mechanism (a shared central buffer in
// place of the input-buffered crossbar datapath) against the XB baseline,
// on a chip-to-chip 4×4 torus with 32-bit flits at 1 GHz and 3 W
// traffic-insensitive links.
//
// Expected shapes (Figure 7): under uniform random traffic the CB router
// saturates earlier (its shared fabric has 2 read ports against the
// crossbar's 5 outputs) yet consumes more power (a central-buffer access
// swings far more capacitance than an input-buffer access plus crossbar
// traversal); links dominate both routers' power, unlike on-chip networks.
package main

import (
	"fmt"
	"log"

	"orion"
)

func main() {
	rates := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	config := func(r orion.RouterConfig, rate float64) orion.Config {
		cfg := orion.ChipToChip4x4(r, rate)
		cfg.Sim.SamplePackets, cfg.Traffic.Seed = 4000, 3
		return cfg
	}

	fmt.Println("chip-to-chip 4x4 torus, 32-bit flits, 1 GHz, 3 W links, uniform random")
	fmt.Printf("%-4s", "rate")
	for _, r := range rates {
		fmt.Printf(" %14.2f", r)
	}
	fmt.Println()
	routerW := map[string]float64{}
	for _, e := range []struct {
		name   string
		router orion.RouterConfig
	}{{"XB", orion.XB()}, {"CB", orion.CB()}} {
		// A rate driven too far past saturation to finish comes back nil
		// and counts as a saturation witness, not an error.
		satRate, saturated, results, err := orion.SaturationThroughput(config(e.router, 0), rates)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s", e.name)
		for _, res := range results {
			if res == nil {
				fmt.Printf(" %14s", "--")
				continue
			}
			fmt.Printf(" %6.0fc/%6.2fW", res.AvgLatency, res.TotalPowerW)
		}
		if saturated {
			fmt.Printf("   saturates at %.2f", satRate)
		}
		fmt.Println()

		res, err := orion.Run(config(e.router, 0.06))
		if err != nil {
			log.Fatal(err)
		}
		b, t := res.Breakdown, res.TotalPowerW
		fmt.Printf("     at 0.06: total %7.2f W: links %5.1f%%, input buffers %5.2f%%, central buffer %5.2f%%, crossbar %5.2f%%\n",
			t, 100*b.LinkW/t, 100*b.BufferW/t, 100*b.CentralBufferW/t, 100*b.CrossbarW/t)
		routerW[e.name] = t - b.LinkW
	}

	// Router-only power (links excluded) isolates the paper's
	// "central buffer consumes much more energy than a crossbar" claim.
	fmt.Printf("\nrouter-only power: XB %.3f W vs CB %.3f W (%.1f× higher for CB)\n",
		routerW["XB"], routerW["CB"], routerW["CB"]/routerW["XB"])
}
