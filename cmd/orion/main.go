// Command orion runs one interconnection-network power-performance
// simulation and prints latency, throughput, total power, the per-component
// power breakdown, and the per-node power map.
//
// Examples:
//
//	# The paper's VC64 on-chip configuration at 10% injection:
//	orion -router vc -vcs 8 -depth 8 -flits 256 -rate 0.10
//
//	# Wormhole router with 64-flit buffers (WH64):
//	orion -router wormhole -depth 64 -flits 256 -rate 0.08
//
//	# Chip-to-chip central-buffered router (Section 4.4):
//	orion -router cb -depth 64 -flits 32 -freq 1 -chip2chip -rate 0.06 \
//	      -cb-banks 4 -cb-rows 2560
//
//	# Broadcast workload from node (1,2):
//	orion -router vc -vcs 2 -depth 8 -flits 256 -pattern broadcast \
//	      -source 9 -rate 0.2
//
//	# Replay a communication trace:
//	orion -router vc -vcs 2 -depth 8 -flits 64 -trace workload.txt
//
//	# Long run with periodic crash-safe snapshots, resumable after a kill:
//	orion -rate 0.1 -snapshot run.orsn -snapshot-every 5000
//	orion -rate 0.1 -snapshot run.orsn -resume
//
// SIGINT/SIGTERM stop the simulation, write a final snapshot when
// -snapshot is set, and exit with status 128+signal.
//
// Exit status: 0 success; 1 runtime errors; 2 bad flags or an invalid
// configuration; 128+signal when interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"orion"
	"orion/internal/cliconfig"
)

var (
	cf = cliconfig.Bind(flag.CommandLine, cliconfig.Orion)

	tracePth   = flag.String("trace", "", "replay a trace file (cycle src dst per line) instead of a pattern")
	showMap    = flag.Bool("map", true, "print the per-node power map")
	dumpConfig = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")

	snapPath   = flag.String("snapshot", "", "periodic checksummed state snapshot file (atomic rewrite; resume with -resume)")
	snapEvery  = flag.Int64("snapshot-every", 10000, "cycles between periodic snapshots (with -snapshot)")
	resumeSnap = flag.Bool("resume", false, "resume from the -snapshot file via verified deterministic replay")
	selfCheck  = flag.Int64("selfcheck", 0,
		"divergence self-check: run the fast event path in lockstep with the reference event path, the always-tick scheduler and (when the run uses more than one worker) one worker (shard 0 on the caller), comparing state hashes every N cycles, then exit")
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "orion: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()
	cfg, err := cf.Config()
	if err == nil && *tracePth != "" && (*snapPath != "" || *resumeSnap) {
		err = errors.New("-snapshot/-resume do not apply to trace replay")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion: %v\n", err)
		return 2
	}
	if *dumpConfig {
		data, err := orion.ConfigJSON(cfg)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(data))
		return 0
	}
	// SIGINT/SIGTERM cancel the run; a final snapshot is written when
	// -snapshot is set, and the process exits 128+signal.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	caught := make(chan os.Signal, 1)
	go func() {
		s, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "orion: %v: stopping\n", s)
		caught <- s
		cancel()
	}()

	if *selfCheck > 0 {
		if err := orion.VerifyEventPath(ctx, cfg, *selfCheck, 0); err != nil {
			fail("self-check: %v", err)
		}
		// Name the oracles VerifyEventPath ran. The always-tick one runs
		// on every CLI config (no flag switches gating off); the
		// one-worker one only when the run resolves to more than one tick
		// worker, which on small networks takes an explicit -workers.
		s, err := orion.NewSim(cfg)
		if err != nil {
			fail("self-check: %v", err)
		}
		agreed := "fast vs reference event path, activity-gated vs always-tick scheduler"
		if s.Workers() > 1 {
			agreed += fmt.Sprintf(", %d workers vs one worker", s.Workers())
		}
		fmt.Printf("self-check passed: %s agree (state hash compared every %d cycles)\n", agreed, *selfCheck)
		return 0
	}

	var (
		res *orion.Result
		sm  *orion.Sim
	)
	switch {
	case *tracePth != "":
		f, ferr := os.Open(*tracePth)
		if ferr != nil {
			fail("%v", ferr)
		}
		defer f.Close()
		res, err = orion.RunTrace(cfg, f)
	case *snapPath != "":
		if *resumeSnap {
			sm, err = orion.ResumeFile(ctx, cfg, *snapPath)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("resumed from %s at cycle %d (replay verified)\n", *snapPath, sm.Cycle())
		} else {
			sm, err = orion.NewSim(cfg)
			if err != nil {
				fail("%v", err)
			}
		}
		sm.SetSnapshotFile(*snapPath, *snapEvery)
		res, err = sm.RunContext(ctx)
	default:
		res, err = orion.RunContext(ctx, cfg)
	}
	if err != nil {
		select {
		case s := <-caught:
			if errors.Is(err, context.Canceled) && sm != nil {
				if serr := sm.SaveSnapshot(*snapPath); serr != nil {
					fmt.Fprintf(os.Stderr, "orion: final snapshot: %v\n", serr)
				} else {
					fmt.Fprintf(os.Stderr, "orion: interrupted at cycle %d; snapshot written to %s (resume with -resume)\n",
						sm.Cycle(), *snapPath)
				}
			}
			if ss, ok := s.(syscall.Signal); ok {
				return 128 + int(ss)
			}
			return 1
		default:
		}
		fail("%v", err)
	}

	shape := fmt.Sprintf("%dx%d", cfg.Width, cfg.Height)
	if cfg.Depth > 1 {
		shape = fmt.Sprintf("%sx%d", shape, cfg.Depth)
	}
	if cfg.Concentration > 1 {
		shape = fmt.Sprintf("%sx%d", shape, cfg.Concentration)
	}
	fmt.Printf("network:        %s %s, %s router, %d-bit flits\n",
		shape, topoName(cfg), cfg.Router.Kind, cfg.Router.FlitBits)
	fmt.Printf("sample:         %d packets over %d measured cycles (%d total)\n",
		res.SamplePackets, res.MeasuredCycles, res.TotalCycles)
	fmt.Printf("latency:        avg %.2f cycles (min %.0f, max %.0f)\n",
		res.AvgLatency, res.MinLatency, res.MaxLatency)
	fmt.Printf("throughput:     %.4f flits/node/cycle (%.4f packets/node/cycle)\n",
		res.AcceptedFlitsPerNodeCycle, res.AcceptedPacketsPerNodeCycle)
	fmt.Printf("energy:         %.4g J over the measurement window\n", res.EnergyJ)
	fmt.Printf("total power:    %.4g W\n", res.TotalPowerW)
	b := res.Breakdown
	fmt.Printf("breakdown:      buffer %.4g W | crossbar %.4g W | arbiter %.4g W | link %.4g W | central buffer %.4g W\n",
		b.BufferW, b.CrossbarW, b.ArbiterW, b.LinkW, b.CentralBufferW)
	if res.StaticPowerW > 0 {
		fmt.Printf("leakage:        %.4g W static (included in totals)\n", res.StaticPowerW)
	}
	ev := res.Events
	fmt.Printf("events:         %d buf writes, %d buf reads, %d arbitrations, %d VC allocs, %d xbar traversals, %d link traversals, %d/%d CB writes/reads\n",
		ev.BufferWrites, ev.BufferReads, ev.Arbitrations, ev.VCAllocations,
		ev.CrossbarTraversals, ev.LinkTraversals, ev.CentralBufferWrites, ev.CentralBufferReads)
	if cfg.Faults != nil {
		fs := res.Faults
		fmt.Printf("faults:         %d packets (%d flits) dropped, %d sample packets lost, %d flits corrupted (%d bits), %d link-stall and %d port-stall blocked cycles\n",
			fs.DroppedPackets, fs.DroppedFlits, res.DroppedSamplePackets,
			fs.FlippedFlits, fs.FlippedBits, fs.StalledLinkCycles, fs.StalledPortCycles)
	}
	if *showMap {
		m, err := orion.HeatmapString(res, cfg.Width, cfg.Height)
		if err == nil {
			fmt.Println("per-node power (W), (0,0) bottom-left:")
			fmt.Print(m)
		}
	}
	if len(res.PowerProfileW) > 0 {
		win := cfg.Sim.ProfileWindowCycles
		fmt.Printf("power profile (W per %d-cycle window):\n", win)
		for i, w := range res.PowerProfileW {
			fmt.Printf("  %8d  %.4g\n", int64(i)*win, w)
		}
	}
	return 0
}

func topoName(cfg orion.Config) string {
	switch {
	case cfg.Concentration > 1:
		return "cmesh"
	case cfg.Mesh:
		return "mesh"
	default:
		return "torus"
	}
}
