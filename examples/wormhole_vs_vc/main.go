// Wormhole vs virtual-channel routers — the paper's first case study
// (Section 4.2): compare the WH64, VC16, VC64 and VC128 configurations of
// an on-chip 4×4 torus across injection rates, simultaneously monitoring
// latency and power, and report each configuration's saturation throughput
// and pre-saturation power.
//
// The paper's observations to look for in the output:
//   - more, smaller virtual channels deliver latency comparable to a big
//     single-queue wormhole buffer at lower power (VC16 vs WH64 power);
//   - VC128's extra buffering costs power without buying throughput over
//     VC64;
//   - power levels off once a configuration saturates.
package main

import (
	"fmt"
	"log"

	"orion"
)

func main() {
	rates := []float64{0.04, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18}

	fmt.Println("on-chip 4x4 torus, 256-bit flits, 2 GHz, uniform random traffic")
	fmt.Printf("%-7s", "rate")
	for _, r := range rates {
		fmt.Printf("  %12.2f", r)
	}
	fmt.Println("  zero-load  saturation")
	for _, c := range orion.Fig5Configs() {
		cfg := orion.OnChip4x4(c.Router, 0)
		cfg.Sim.SamplePackets, cfg.Traffic.Seed = 4000, 7
		zeroLoad, err := orion.ZeroLoadLatency(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// A rate driven too far past saturation to finish comes back nil
		// and counts as a saturation witness, not an error.
		satRate, saturated, results, err := orion.SaturationThroughput(cfg, rates)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s", c.Label)
		for _, res := range results {
			if res == nil {
				fmt.Printf("  %12s", "--")
				continue
			}
			fmt.Printf("  %6.0fc/%4.1fW", res.AvgLatency, res.TotalPowerW)
		}
		sat := "none"
		if saturated {
			sat = fmt.Sprintf("%.2f", satRate)
		}
		fmt.Printf("  %7.1fc  %s\n", zeroLoad, sat)
	}
}
