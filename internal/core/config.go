// Package core assembles complete network simulations — the paper's
// primary contribution of coupling a cycle-accurate interconnection-network
// performance simulator with architectural power models hooked to its
// event stream — and runs the measurement protocol of Section 4.1.
package core

import (
	"fmt"
	"os"
	"runtime"
	"strconv"

	"orion/internal/fault"
	"orion/internal/power"
	"orion/internal/router"
	"orion/internal/tech"
	"orion/internal/topology"
	"orion/internal/traffic"
)

// Config describes one complete simulation.
type Config struct {
	// Topology is the network topology (e.g. the paper's 4×4 torus).
	Topology *topology.Grid
	// Router configures every router identically.
	Router router.Config
	// Link configures the inter-router links' power behaviour.
	Link power.LinkConfig
	// Tech is the process technology.
	Tech tech.Params
	// Traffic is the workload.
	Traffic traffic.Config
	// Trace, when set, replaces Bernoulli injection with trace replay
	// (Section 4.3: Orion "can be interfaced with actual communication
	// traces"). Traffic.Rates are ignored; the run ends when every
	// sample packet has been delivered or the trace is exhausted.
	Trace *traffic.Trace

	// ArbiterKind selects the arbiter power model (the functional grant
	// order is round-robin in all cases). Default: matrix arbiters, as
	// in the Section 3.3 walkthrough.
	ArbiterKind power.ArbiterKind
	// CrossbarKind selects the crossbar power model. Default: matrix.
	CrossbarKind power.CrossbarKind
	// FixedActivity replaces tracked switching with the α = 0.5
	// assumption in all data-dependent models (ablation; see DESIGN.md).
	FixedActivity bool

	// Deadlock selects the torus deadlock-avoidance mechanism.
	Deadlock DeadlockMode

	// IncludeLeakage adds static (leakage) power per component to the
	// report, an extension beyond the paper's dynamic-only models (the
	// direction its successor Orion 2.0 took). Default off for fidelity
	// to the MICRO 2002 models.
	IncludeLeakage bool

	// LinkDVS, when set, puts every inter-router link under a dynamic
	// voltage scaling controller (the paper's cited follow-on study
	// [17]): links at low utilisation step down their voltage and
	// frequency, saving power at a latency cost. On-chip links only.
	LinkDVS *power.DVSConfig

	// ReferenceEventPath hooks power models to the event bus through the
	// map-based reference listener instead of the frozen fast path
	// (testing hook: the two must be observably identical; see the
	// golden tests and DESIGN.md "Performance").
	ReferenceEventPath bool

	// Faults, when set, injects the seeded fault schedule into the run:
	// link stalls/drops, router port stalls, and payload bit-flips (see
	// internal/fault). Identical schedules replay identically.
	Faults *fault.Config

	// CheckInvariants attaches the runtime invariant checker (see
	// Checker): conservation, occupancy and delivery-order violations
	// abort the run with an InvariantError instead of corrupting results.
	// Costs per-event bookkeeping; off by default here (the public API
	// turns it on automatically under `go test`).
	CheckInvariants bool

	// ProfileWindow, when positive, samples network power every that
	// many cycles over the measurement period, producing a power-vs-time
	// profile in the result (useful for watching DVS adaptation and
	// saturation transients).
	ProfileWindow int64

	// WarmupCycles precede measurement; energy is not recorded
	// (Section 4.1 uses 1000).
	WarmupCycles int64
	// SamplePackets is the measurement sample size (Section 4.1 uses
	// 10,000): the simulation runs until all of them are delivered.
	SamplePackets int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// ProgressWindow aborts when no flit is delivered for this many
	// cycles while sample packets are outstanding (deadlock detector).
	ProgressWindow int64

	// Workers is the tick worker count. 0 resolves to the ORION_WORKERS
	// environment variable if set, else GOMAXPROCS — except that this
	// last, machine-derived default drops to 1 (one worker: shard 0 on
	// the caller) on networks of fewer than seqCutoffNodes nodes, where
	// the per-cycle barriers of more workers cost more than sharding
	// saves.
	// An explicit count (field or environment) is kept on any network.
	// Whatever the source, the count is capped at half the node count and
	// forced to 1 when fault injection is configured (faults mutate shared
	// network state mid-tick). Results are bit-identical at every worker
	// count — Workers is an execution detail, excluded from config
	// digests and snapshots.
	Workers int

	// AlwaysTick disables the active-set scheduler: every module ticks
	// every cycle, as before activity gating existed. The gated path is
	// bit-identical — AlwaysTick is the reference to diff it against
	// (like ReferenceEventPath for the event fast path) and, like
	// Workers, an execution detail excluded from digests and snapshots.
	AlwaysTick bool
}

// seqCutoffNodes is the network size below which auto-resolved workers
// drop to one. BenchmarkWorkerCutoff's rows in BENCH_hotpath.json (1 vs
// 2 workers on k×k meshes, 2 CPUs) set it: 2 workers lose up to the 8×8
// mesh and tie on the 16×16 (256 nodes), where one worker does the same
// work on one core; from the 20×20 mesh (400 nodes) on they win.
const seqCutoffNodes = 400

// effectiveWorkers resolves Workers against the environment, the machine
// and the network size. See the Workers field for the policy.
func (c Config) effectiveWorkers(nodes int) int {
	w := c.Workers
	if w == 0 {
		if s := os.Getenv("ORION_WORKERS"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				w = v
			}
		}
	}
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if nodes < seqCutoffNodes {
			w = 1
		}
	}
	if c.Faults != nil {
		w = 1
	}
	if limit := nodes / 2; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// DeadlockMode selects how dimension-ordered routing on a torus is kept
// deadlock-free. The paper does not describe a mechanism; the ablation
// bench compares all three.
type DeadlockMode int

const (
	// DeadlockBubble (default) uses bubble flow control: virtual
	// cut-through admission plus a whole-packet bubble per ring.
	// Deadlock-free; costs some buffer utilisation.
	DeadlockBubble DeadlockMode = iota
	// DeadlockDateline partitions VCs into dateline classes
	// (virtual-channel routers only; even VC count ≥ 2). Deadlock-free;
	// halves VC flexibility.
	DeadlockDateline
	// DeadlockNone applies plain wormhole flow control with no
	// protection, matching what the paper most plausibly simulated.
	// The network can deadlock when driven past saturation; the run
	// then fails with a no-progress error.
	DeadlockNone
)

// String implements fmt.Stringer.
func (m DeadlockMode) String() string {
	switch m {
	case DeadlockBubble:
		return "bubble"
	case DeadlockDateline:
		return "dateline"
	case DeadlockNone:
		return "none"
	default:
		return fmt.Sprintf("DeadlockMode(%d)", int(m))
	}
}

// Defaults used when the corresponding Config fields are zero.
const (
	// DefaultWarmupCycles is the paper's warm-up length.
	DefaultWarmupCycles = 1000
	// DefaultSamplePackets is the paper's sample size.
	DefaultSamplePackets = 10000
	// DefaultMaxCycles bounds a single simulation.
	DefaultMaxCycles = 2_000_000
	// DefaultProgressWindow bounds delivery stalls.
	DefaultProgressWindow = 50_000
)

// withDefaults returns a copy with zero protocol fields filled in.
func (c Config) withDefaults() Config {
	if c.WarmupCycles <= 0 {
		c.WarmupCycles = DefaultWarmupCycles
	}
	if c.SamplePackets <= 0 {
		c.SamplePackets = DefaultSamplePackets
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	if c.ProgressWindow <= 0 {
		c.ProgressWindow = DefaultProgressWindow
	}
	return c
}

// Validate reports an error for an inconsistent configuration as Build
// sees it (defaults filled in), including deadlock-unsafe combinations on
// torus topologies.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Topology == nil {
		return fmt.Errorf("core: topology is required")
	}
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.Router.Ports != c.Topology.Ports() {
		return fmt.Errorf("core: router has %d ports but topology needs %d",
			c.Router.Ports, c.Topology.Ports())
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.Link.WidthBits != c.Router.FlitBits {
		return fmt.Errorf("core: link width %d does not match flit width %d",
			c.Link.WidthBits, c.Router.FlitBits)
	}
	if err := c.Tech.Validate(); err != nil {
		return err
	}
	if err := c.Traffic.Validate(c.Topology.Nodes()); err != nil {
		return err
	}
	if c.Traffic.FlitBits != c.Router.FlitBits {
		return fmt.Errorf("core: traffic flit width %d does not match router flit width %d",
			c.Traffic.FlitBits, c.Router.FlitBits)
	}

	if c.LinkDVS != nil {
		if c.Link.Kind != power.OnChipLink {
			return fmt.Errorf("core: link DVS requires on-chip links (chip-to-chip links are traffic-insensitive)")
		}
		if err := c.LinkDVS.Validate(); err != nil {
			return err
		}
	}

	if c.Faults != nil {
		if err := c.Faults.Validate(c.Topology.Nodes(), c.Topology.Ports()); err != nil {
			return err
		}
	}

	if c.Topology.Wraparound() && c.Deadlock != DeadlockNone {
		switch c.Router.Kind {
		case router.VirtualChannel:
			if c.Deadlock == DeadlockDateline {
				if c.Router.VCs < 2 || c.Router.VCs%2 != 0 {
					return fmt.Errorf("core: dateline VC classes on a torus need an even VC count ≥ 2, got %d", c.Router.VCs)
				}
			} else if c.Router.BufferDepth < c.Traffic.PacketLength {
				// Bubble flow control admits heads under virtual
				// cut-through: a VC buffer must hold a whole packet.
				return fmt.Errorf("core: bubble flow control on a torus needs VC buffer depth ≥ packet length (%d), got %d",
					c.Traffic.PacketLength, c.Router.BufferDepth)
			}
		case router.Wormhole, router.CentralBuffered:
			// Local bubble flow control needs room for two packets in
			// a downstream buffer.
			if c.Router.BufferDepth < 2*c.Traffic.PacketLength {
				return fmt.Errorf("core: %s router on a torus needs buffer depth ≥ 2×packet length (%d), got %d (bubble flow control)",
					c.Router.Kind, 2*c.Traffic.PacketLength, c.Router.BufferDepth)
			}
		}
	}
	return nil
}
