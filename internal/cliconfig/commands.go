package cliconfig

import "orion"

// The config-flag surfaces of the commands. Each base holds the
// command's defaults; each list names the flags it exposes.
var (
	// Orion is cmd/orion: one simulation, every knob exposed.
	Orion = Spec{
		Base: withSim(orion.OnChip4x4(orion.VC16(), 0.1), 10000, 1000),
		Flags: []string{
			"width", "height", "z", "mesh", "topology",
			"router", "vcs", "depth", "flits", "cb-banks", "cb-rows", "cb-read", "cb-write",
			"chip2chip", "link-mm", "link-watts", "freq", "vdd", "feature",
			"pattern", "source", "fraction", "rate", "packet", "seed",
			"samples", "warmup", "workers", "deadlock", "config", "profile",
			"faults", "fault-links", "fault-kind", "fault-seed", "fault-start", "fault-duration", "fault-rate",
			"invariants",
		},
	}
	// Sweep is cmd/orion-sweep: a paper preset or a 4x4 torus router,
	// swept over injection rates; -fault-links degrades it with link
	// drops.
	Sweep = Spec{
		Base: withSim(orion.OnChip4x4(orion.VC16(), 0), 5000, 0),
		Flags: []string{
			"preset", "samples", "seed", "topology", "router", "vcs", "depth", "flits", "chip2chip",
			"faults", "fault-links", "fault-seed", "invariants", "point-timeout", "workers",
		},
		FaultKind: orion.FaultLinkDrop,
	}
	// Power is cmd/orion-power: the power models of one router, with
	// the Section 3.3 walkthrough router as the default.
	Power = Spec{
		Base: powerBase(),
		Flags: []string{
			"router", "vcs", "depth", "flits", "cb-banks", "cb-rows", "chip2chip",
			"link-mm", "link-watts", "freq", "vdd", "feature", "muxtree", "arbiter",
		},
	}
)

// withSim sets a base's workload seed (1) and measurement protocol.
func withSim(cfg orion.Config, samples int, warmup int64) orion.Config {
	cfg.Traffic.Seed = 1
	cfg.Sim.SamplePackets, cfg.Sim.WarmupCycles = samples, warmup
	return cfg
}

// powerBase is orion-power's default: the walkthrough router in the
// 4x4 on-chip setup. The power models evaluate one router in isolation,
// so no torus flow control applies; DeadlockNone keeps Validate from
// demanding the buffer depths that bubble flow control needs in a
// simulation (the walkthrough router's 4-flit buffers would fail it).
func powerBase() orion.Config {
	cfg := orion.OnChip4x4(orion.RouterConfig{Kind: orion.Wormhole, VCs: 2, BufferDepth: 4, FlitBits: 32}, 0.1)
	cfg.Sim.Deadlock = orion.DeadlockNone
	return cfg
}
