// Command orion-exp regenerates every figure of the paper's evaluation
// (Section 4: the Section 3.3 walkthrough and Figures 5, 6 and 7) and the
// design-choice ablations. It prints each result as the markdown block
// EXPERIMENTS.md holds between the same markers; `make experiments-doc`
// checks the document against them. The wall time goes to stderr.
//
// Usage:
//
//	orion-exp [-fig all|walkthrough|5|6|7|ablations] [-samples N] [-seed N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// The default sample size follows the paper (10,000 packets per run);
// -samples 2000 gives a quick pass with the same shapes. -cpuprofile and
// -memprofile write runtime/pprof profiles for `go tool pprof`.
//
// Exit status: 0 success; 1 when an experiment fails; 2 bad flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"orion/internal/experiments"
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
	if *figFlag != "all" && !slices.Contains(experiments.Figures, *figFlag) {
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

	start := time.Now()
	rep, err := experiments.Run(experiments.Options{SamplePackets: *samplesFlag, Seed: *seedFlag}, *figFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion-exp: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(experiments.Markdown(rep.Blocks()))
	fmt.Fprintf(os.Stderr, "(total %v)\n", time.Since(start).Round(time.Millisecond))
}
