// Command orion-power is the standalone power-analysis tool: it evaluates
// the architectural-level parameterized power models of the paper's
// Section 3 (Tables 2–4 plus the central buffer and link models) for one
// router configuration, with no simulation. The paper released its power
// models this way, "either as a separate power analysis tool, or as a
// plug-in to other network simulators".
//
// Examples:
//
//	# The Section 3.3 walkthrough router:
//	orion-power -router wormhole -depth 4 -flits 32
//
//	# The paper's VC64 on-chip router:
//	orion-power -router vc -vcs 8 -depth 8 -flits 256
//
//	# The Section 4.4 central-buffered router:
//	orion-power -router cb -depth 64 -flits 32 -chip2chip -freq 1
//
// Exit status: 0 success; 1 when the models cannot be evaluated; 2 bad
// flags or an invalid configuration.
package main

import (
	"flag"
	"fmt"
	"os"

	"orion"
	"orion/internal/cliconfig"
)

var cf = cliconfig.Bind(flag.CommandLine, cliconfig.Power)

func main() {
	flag.Parse()
	cfg, err := cf.Config()
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion-power: %v\n", err)
		os.Exit(2)
	}
	rep, err := orion.ComponentEnergies(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion-power: %v\n", err)
		os.Exit(1)
	}

	pJ := func(j float64) string { return fmt.Sprintf("%10.4f pJ", j*1e12) }
	fmt.Printf("router: %s, %d-bit flits, buffer depth %d\n", cfg.Router.Kind, cfg.Router.FlitBits, cfg.Router.BufferDepth)
	fmt.Println("-- FIFO buffer (Table 2) --")
	fmt.Printf("  read energy            %s\n", pJ(rep.BufferReadJ))
	fmt.Printf("  write energy (α=0.5)   %s\n", pJ(rep.BufferWriteAvgJ))
	fmt.Printf("  write energy (max)     %s\n", pJ(rep.BufferWriteMaxJ))
	if cfg.Router.Kind != orion.CentralBuffered {
		fmt.Println("-- crossbar (Table 3) --")
		fmt.Printf("  traversal (α=0.5)      %s\n", pJ(rep.CrossbarTraversalAvgJ))
		fmt.Printf("  control per grant      %s\n", pJ(rep.CrossbarCtrlJ))
	} else {
		fmt.Println("-- central buffer (Section 3.2) --")
		fmt.Printf("  read energy            %s\n", pJ(rep.CentralBufReadJ))
		fmt.Printf("  write energy           %s\n", pJ(rep.CentralBufWriteJ))
	}
	fmt.Println("-- arbiter (Table 4) --")
	fmt.Printf("  grant energy           %s\n", pJ(rep.ArbiterGrantJ))
	fmt.Printf("  request lines (α=0.5)  %s\n", pJ(rep.ArbiterRequestAvgJ))
	fmt.Println("-- link --")
	if cfg.Link.ChipToChip {
		fmt.Printf("  constant power         %10.4f W (traffic-insensitive)\n", rep.LinkConstantW)
	} else {
		fmt.Printf("  traversal (α=0.5)      %s\n", pJ(rep.LinkTraversalAvgJ))
	}
	fmt.Println("-- totals --")
	fmt.Printf("  E_flit (Section 3.3)   %s\n", pJ(rep.FlitEnergyJ))
	fmt.Printf("  router area            %10.4f mm²\n", rep.RouterAreaUm2/1e6)
}
