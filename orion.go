// Package orion is a power-performance simulator for interconnection
// networks, reproducing Wang, Zhu, Peh & Malik, "Orion: A Power-Performance
// Simulator for Interconnection Networks" (MICRO 2002).
//
// Orion couples a cycle-accurate network simulator (wormhole,
// virtual-channel and central-buffered routers on torus/mesh topologies
// with credit-based flow control) with architectural-level parameterized
// power models for FIFO buffers, crossbars, arbiters, central buffers and
// links. Power models are hooked to the simulator's event stream, so every
// buffer access, arbitration, crossbar traversal and link traversal is
// converted to energy using real tracked switching activity.
//
// # Quick start
//
//	cfg := orion.Config{
//		Width: 4, Height: 4,
//		Router:  orion.RouterConfig{Kind: orion.VirtualChannel, VCs: 2, BufferDepth: 8, FlitBits: 256},
//		Link:    orion.LinkConfig{LengthMm: 3},
//		Traffic: orion.TrafficConfig{Pattern: orion.Uniform(), Rate: 0.1, PacketLength: 5},
//	}
//	res, err := orion.Run(cfg)
//
// See the examples directory and cmd/orion for complete programs, and
// DESIGN.md / EXPERIMENTS.md for the mapping to the paper's experiments.
package orion

import "time"

// RouterKind selects a router microarchitecture.
type RouterKind int

const (
	// VirtualChannel is an input-buffered crossbar router with virtual
	// channels and a 3-stage pipeline (VA, SA, ST).
	VirtualChannel RouterKind = iota
	// Wormhole is an input-buffered crossbar router with one queue per
	// port and a 2-stage pipeline (SA, ST).
	Wormhole
	// CentralBuffered forwards flits through a shared central buffer
	// with limited fabric ports.
	CentralBuffered
)

// CentralBufferConfig sizes the shared central buffer of a
// CentralBuffered router.
type CentralBufferConfig struct {
	// Banks is the number of one-flit-wide SRAM banks.
	Banks int
	// Rows is the number of rows (chunks) per bank.
	Rows int
	// ReadPorts and WritePorts are the shared fabric ports.
	ReadPorts, WritePorts int
}

// RouterConfig describes every router in the network.
type RouterConfig struct {
	// Kind selects the microarchitecture.
	Kind RouterKind
	// VCs is the number of virtual channels per port (VirtualChannel
	// routers; others use 1 and may leave it zero).
	VCs int
	// BufferDepth is the input buffer depth in flits (per VC for
	// VirtualChannel routers, per port otherwise).
	BufferDepth int
	// FlitBits is the flit width in bits.
	FlitBits int
	// CentralBuffer sizes the shared buffer (CentralBuffered only).
	CentralBuffer CentralBufferConfig
	// Speculative collapses the virtual-channel router's pipeline to 2
	// stages by bidding for the switch concurrently with VC allocation
	// (Peh & Dally's speculative architecture; the paper's evaluation
	// uses the non-speculative 3-stage pipeline).
	Speculative bool
}

// LinkConfig describes the inter-router links.
type LinkConfig struct {
	// ChipToChip selects traffic-insensitive links with constant power
	// (the paper's 3 W InfiniBand-style links); otherwise links are
	// on-chip wires whose energy follows tracked bit switching.
	ChipToChip bool
	// LengthMm is the on-chip wire length in millimetres (the paper's
	// 4×4 torus on a 12 mm × 12 mm chip uses 3 mm).
	LengthMm float64
	// ConstantWatts is the per-link power of a chip-to-chip link.
	ConstantWatts float64
	// DVS enables dynamic voltage scaling on every inter-router link —
	// the follow-on study the paper cites as [17]. On-chip links only.
	DVS *DVSPolicy
}

// DVSLevel is one link voltage/frequency operating point.
type DVSLevel struct {
	// VddScale scales the supply voltage; energy scales with its square.
	VddScale float64
	// SpeedScale scales the link bandwidth (flits per cycle).
	SpeedScale float64
}

// DVSPolicy parameterises history-based link voltage scaling. Zero fields
// take a three-level default (full / 80 % / 60 % voltage).
type DVSPolicy struct {
	// Levels are operating points, fastest first (level 0 must be full
	// speed and voltage).
	Levels []DVSLevel
	// WindowCycles is the utilisation history window.
	WindowCycles int64
	// UpUtil and DownUtil are step-up/step-down utilisation thresholds.
	UpUtil, DownUtil float64
}

// TechConfig selects the process technology. Zero fields take the paper's
// defaults (0.1 µm, 1.2 V).
type TechConfig struct {
	// FeatureUm scales the default 0.1 µm process to another node.
	FeatureUm float64
	// Vdd overrides the supply voltage in volts.
	Vdd float64
	// FreqGHz is the clock frequency in gigahertz (default 2, the
	// paper's on-chip clock; its chip-to-chip study uses 1).
	FreqGHz float64
}

// PatternKind identifies a traffic pattern.
type PatternKind int

const (
	// PatternUniform sends to uniformly random destinations.
	PatternUniform PatternKind = iota
	// PatternBroadcast sends from one source to all other nodes in turn.
	PatternBroadcast
	// PatternTranspose sends (x,y) to (y,x).
	PatternTranspose
	// PatternBitComplement sends node i to N-1-i.
	PatternBitComplement
	// PatternTornado sends halfway around each row ring.
	PatternTornado
	// PatternHotspot sends a fraction of traffic to one node.
	PatternHotspot
	// PatternNeighbor sends to the east neighbour.
	PatternNeighbor
)

// Pattern describes a traffic pattern.
type Pattern struct {
	// Kind selects the pattern.
	Kind PatternKind
	// Source is the broadcasting node (PatternBroadcast) or hot node
	// (PatternHotspot).
	Source int
	// Fraction is the hotspot traffic share (PatternHotspot).
	Fraction float64
}

// Uniform returns the uniform random pattern.
func Uniform() Pattern { return Pattern{Kind: PatternUniform} }

// BroadcastFrom returns a broadcast pattern with the given source node.
func BroadcastFrom(source int) Pattern {
	return Pattern{Kind: PatternBroadcast, Source: source}
}

// TrafficConfig describes the workload.
type TrafficConfig struct {
	// Pattern picks destinations.
	Pattern Pattern
	// Rate is the injection probability per node per cycle. For
	// broadcast patterns it applies to the source node only.
	Rate float64
	// PacketLength is the number of flits per packet (the paper uses 5).
	PacketLength int
	// Seed makes runs reproducible; runs with equal configs are
	// deterministic.
	Seed int64
}

// SimConfig tunes the measurement protocol (zero fields take the paper's
// values: 1000 warm-up cycles, 10,000 sample packets).
type SimConfig struct {
	// WarmupCycles precede measurement.
	WarmupCycles int64
	// SamplePackets is the number of measured packets.
	SamplePackets int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// FixedActivity replaces tracked switching with α = 0.5 (ablation).
	FixedActivity bool
	// MuxTreeCrossbar models the crossbar as a multiplexer tree instead
	// of a crosspoint matrix (ablation).
	MuxTreeCrossbar bool
	// Arbiter selects the arbiter power model.
	Arbiter ArbiterKind
	// Deadlock selects the torus deadlock-avoidance mechanism.
	Deadlock DeadlockMode
	// IncludeLeakage adds static (leakage) power per component — an
	// extension beyond the paper's dynamic-only power models, in the
	// direction its successor Orion 2.0 took.
	IncludeLeakage bool
	// ProfileWindowCycles, when positive, samples network power every
	// that many cycles, producing Result.PowerProfileW — a power-vs-time
	// trace of the measurement period.
	ProfileWindowCycles int64
	// ReferenceEventPath hooks power models to the event bus through the
	// map-based reference listener instead of the frozen fast path. The
	// two paths are observably identical (the golden tests assert bit
	// equality); this is a testing/diagnostics hook, not a tuning knob.
	ReferenceEventPath bool
	// ProgressWindowCycles aborts a run with ErrDeadlock when no flit is
	// delivered for this many cycles while sample packets are outstanding
	// (default 50,000).
	ProgressWindowCycles int64
	// PointTimeout bounds each sweep point's wall-clock time: Sweep and
	// SweepContext cancel a point's run after this long, recording a
	// context.DeadlineExceeded for that rate while the rest of the curve
	// completes. Zero means no per-point deadline.
	PointTimeout time.Duration
	// PointRetries is the number of times a sweep point that failed
	// transiently (a worker panic or a PointTimeout deadline) is retried
	// with jittered backoff before its error sticks. Deterministic
	// failures — saturation, deadlock, invariant violations, sweep
	// cancellation — are never retried: re-running a deterministic
	// simulation reproduces them exactly. Zero means no retries.
	PointRetries int
	// Workers is the tick worker count for a single run; one worker is
	// shard 0 on the calling goroutine. 0 resolves to the ORION_WORKERS
	// environment variable if set, else GOMAXPROCS — but to 1 on networks
	// below a measured size (see DESIGN.md "Worker resolution"), where
	// the per-cycle barriers of more workers cost more than they save. An explicit count is
	// kept on any network. The result is capped at half the node count
	// and forced to 1 under fault injection. Results are bit-identical
	// at every worker count, so Workers is an execution detail: it is
	// excluded from the canonical config JSON (and therefore from config
	// digests and snapshot binding). Sweeps default each point to 1
	// worker — the sweep already fills all cores with concurrent points.
	Workers int `json:"-"`
	// AlwaysTick disables the active-set scheduler, ticking every module
	// every cycle as the engine did before activity gating existed. The
	// gated path is bit-identical — AlwaysTick exists as the reference to
	// diff against (like ReferenceEventPath), not as a tuning knob. Like
	// Workers it is an execution detail, excluded from config digests and
	// snapshot binding, so snapshots resume across the two modes.
	AlwaysTick bool `json:"-"`
}

// DeadlockMode selects how dimension-ordered routing on a torus is kept
// deadlock-free (the paper does not describe its mechanism; see DESIGN.md).
type DeadlockMode int

const (
	// DeadlockBubble (default) uses bubble flow control: virtual
	// cut-through admission plus a whole-packet bubble per ring.
	DeadlockBubble DeadlockMode = iota
	// DeadlockDateline partitions virtual channels into dateline classes
	// (virtual-channel routers only; even VC count). Conservative.
	DeadlockDateline
	// DeadlockNone disables protection (plain wormhole flow control);
	// runs driven past saturation may fail with a no-progress error.
	DeadlockNone
)

// ArbiterKind selects the arbiter power model (the functional grant order
// is round-robin in all cases).
type ArbiterKind int

const (
	// MatrixArbiter models a priority-matrix arbiter (default).
	MatrixArbiter ArbiterKind = iota
	// RoundRobinArbiter models a rotating-pointer arbiter.
	RoundRobinArbiter
	// QueuingArbiter models a FIFO-ordered arbiter.
	QueuingArbiter
)

// Config is a complete simulation description.
type Config struct {
	// Width and Height shape the 2-D network (the paper uses 4×4).
	Width, Height int
	// Depth, when greater than 1, makes the network a Width×Height×Depth
	// k-ary 3-cube (routers gain two ports for the third dimension).
	// Torus only; node (x, y, z) has index (z·Height + y)·Width + x.
	Depth int
	// Mesh disables the torus wraparound links (2-D only).
	Mesh bool
	// Concentration, when greater than 1, concentrates the mesh: each of
	// the Width×Height clusters holds Concentration terminals sharing one
	// hub router in the mesh, with the satellite terminals attached to
	// their hub over dedicated spoke links (a CMesh). Node (x, y, s) has
	// index (y·Width + x)·Concentration + s; s = 0 is the hub. Requires
	// Mesh; the total node count is Width·Height·Concentration.
	Concentration int
	// BalancedTieRouting alternates the direction of exact half-ring
	// routing ties by node parity, balancing the load between the
	// positive and negative rings of a torus (always-positive ties load
	// the + rings with 3× the − traffic on even-radix rings).
	BalancedTieRouting bool
	// Router configures every router.
	Router RouterConfig
	// Link configures the links.
	Link LinkConfig
	// Tech selects the process technology.
	Tech TechConfig
	// Traffic is the workload.
	Traffic TrafficConfig
	// Sim tunes the measurement protocol.
	Sim SimConfig
	// Faults, when set, injects a deterministic seeded fault schedule —
	// link stalls and drops, router port stalls, payload bit-flips — so
	// degraded-network latency/power curves are a first-class workload.
	// See FaultsConfig and RandomLinkFaults; effects are reported in
	// Result.Faults.
	Faults *FaultsConfig
	// CheckInvariants controls the runtime invariant checker. The
	// default (InvariantAuto) turns it on under `go test` and off
	// otherwise; see InvariantMode.
	CheckInvariants InvariantMode
}
