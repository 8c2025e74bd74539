// Package router implements the router microarchitectures of the paper's
// case studies:
//
//   - wormhole routers with a 2-stage pipeline (switch arbitration,
//     crossbar traversal),
//   - virtual-channel routers with a 3-stage pipeline (VC allocation,
//     switch allocation, crossbar traversal), per the router delay model
//     the paper adopts [Peh & Dally, HPCA 2001], and
//   - central-buffered routers, where a shared pipelined memory forwards
//     flits between input and output ports (Section 4.4).
//
// Wormhole and virtual-channel routers share one implementation configured
// differently, mirroring the paper's observation that both "share exactly
// the same modules but with differently configured functional and timing
// behavior" (Section 2.2). All routers use credit-based flow control
// (Section 4.1) and emit power events on the simulation bus for every
// buffer access, arbitration, crossbar traversal and link traversal.
package router

import "fmt"

// Kind selects a router microarchitecture.
type Kind int

const (
	// Wormhole is an input-buffered crossbar router with one queue per
	// port and a 2-stage pipeline.
	Wormhole Kind = iota
	// VirtualChannel is an input-buffered crossbar router with multiple
	// virtual channels per port and a 3-stage pipeline.
	VirtualChannel
	// CentralBuffered forwards flits through a shared central buffer
	// with a limited number of fabric read/write ports.
	CentralBuffered
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Wormhole:
		return "wormhole"
	case VirtualChannel:
		return "virtual-channel"
	case CentralBuffered:
		return "central-buffered"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes one router. The paper's configurations (Sections 4.2,
// 4.4) map as:
//
//	WH64:  {Kind: Wormhole, VCs: 1, BufferDepth: 64}
//	VC16:  {Kind: VirtualChannel, VCs: 2, BufferDepth: 8}
//	VC64:  {Kind: VirtualChannel, VCs: 8, BufferDepth: 8}
//	VC128: {Kind: VirtualChannel, VCs: 8, BufferDepth: 16}
//	XB:    {Kind: VirtualChannel, VCs: 16, BufferDepth: 268}
//	CB:    {Kind: CentralBuffered, BufferDepth: 64,
//	        CBBanks: 4, CBRows: 2560, CBReadPorts: 2, CBWritePorts: 2}
type Config struct {
	// Kind selects the microarchitecture.
	Kind Kind
	// Ports is the number of router ports including the local
	// injection/ejection port (5 for a 2-D torus).
	Ports int
	// VCs is the number of virtual channels per port (1 for wormhole
	// and central-buffered routers).
	VCs int
	// BufferDepth is the input buffer depth in flits, per VC for
	// virtual-channel routers and per port otherwise.
	BufferDepth int
	// FlitBits is the flit width in bits.
	FlitBits int

	// Central buffer geometry (CentralBuffered only).
	CBBanks      int
	CBRows       int
	CBReadPorts  int
	CBWritePorts int

	// Bubble enables bubble flow control, the default deadlock-avoidance
	// mechanism on tori (the paper does not describe one; this is the
	// standard choice that preserves full VC flexibility). For wormhole
	// and central-buffered routers, a head entering a ring — by
	// injection or by turning dimensions — must find space for two full
	// packets in the downstream buffer. For virtual-channel routers,
	// heads are admitted under virtual cut-through (space for the whole
	// packet) and ring-entering heads must additionally leave a
	// whole-packet bubble in the target ring, tracked by the Ring
	// occupancy accountants attached via SetInputRing/SetOutputRing.
	Bubble bool

	// Dateline selects dateline VC-class partitioning instead of bubble
	// flow control for virtual-channel routers on a torus: packets use
	// lower-half VCs before a dimension's wraparound link and upper-half
	// VCs from it onward (requires an even VC count ≥ 2). Conservative:
	// it halves VC flexibility; provided for the deadlock-avoidance
	// ablation in DESIGN.md.
	Dateline bool

	// PortDim maps each port to the topology dimension it moves along
	// (-1 for the local and spoke ports), used by bubble flow control
	// to distinguish packets continuing around a ring from packets
	// entering one. Ports outside it share no dimension.
	PortDim []int

	// Speculative lets a head flit bid for the switch in the same cycle
	// as its virtual-channel allocation, collapsing the VC router's
	// 3-stage pipeline to the 2 stages of the speculative architecture
	// of Peh & Dally [15] (which the paper cites for its router delay
	// model, though its evaluation uses the non-speculative 3-stage
	// pipeline). Modelled as always-successful speculation: VC
	// allocation resolves before switch allocation within the cycle.
	Speculative bool
}

// Validate reports an error for an unusable configuration.
func (c Config) Validate() error {
	switch c.Kind {
	case Wormhole, VirtualChannel, CentralBuffered:
	default:
		return fmt.Errorf("router: unknown kind %d", int(c.Kind))
	}
	if c.Ports < 2 {
		return fmt.Errorf("router: need at least 2 ports, got %d", c.Ports)
	}
	if c.FlitBits <= 0 {
		return fmt.Errorf("router: flit width must be positive, got %d", c.FlitBits)
	}
	if c.BufferDepth <= 0 {
		return fmt.Errorf("router: buffer depth must be positive, got %d", c.BufferDepth)
	}
	switch c.Kind {
	case Wormhole, CentralBuffered:
		if c.VCs != 1 {
			return fmt.Errorf("router: %s routers use exactly 1 VC, got %d", c.Kind, c.VCs)
		}
	case VirtualChannel:
		if c.VCs < 1 || c.VCs > 64 {
			return fmt.Errorf("router: VCs must be in [1,64], got %d", c.VCs)
		}
	}
	if c.Kind == CentralBuffered {
		if c.CBBanks <= 0 || c.CBRows <= 0 {
			return fmt.Errorf("router: central buffer needs banks and rows, got %d×%d", c.CBBanks, c.CBRows)
		}
		if c.CBReadPorts <= 0 || c.CBWritePorts <= 0 {
			return fmt.Errorf("router: central buffer needs fabric ports, got %dR/%dW",
				c.CBReadPorts, c.CBWritePorts)
		}
	}
	return nil
}

// PipelineStages returns the router pipeline depth: 2 for wormhole
// (SA, ST), 3 for virtual-channel (VA, SA, ST) per Section 4.2 — or 2
// with speculation [15] — and 3 for central-buffered routers (input
// buffer, CB write, CB read).
func (c Config) PipelineStages() int {
	switch c.Kind {
	case VirtualChannel:
		if c.Speculative {
			return 2
		}
		return 3
	case CentralBuffered:
		return 3
	default:
		return 2
	}
}

// sameDim reports whether two ports move along the same topology
// dimension, per PortDim.
func (c Config) sameDim(a, b int) bool {
	if a < 0 || a >= len(c.PortDim) || b < 0 || b >= len(c.PortDim) {
		return false
	}
	return c.PortDim[a] >= 0 && c.PortDim[a] == c.PortDim[b]
}

// reqSlot maps input port p to its requester slot at output port o's
// arbiter, excluding the u-turn input (footnote 5: "we assume a flit does
// not u-turn"). The paper's walkthrough therefore uses a 4:1 arbiter per
// output port of a 5-port router.
func reqSlot(outPort, inPort int) int {
	if inPort < outPort {
		return inPort
	}
	return inPort - 1
}

// slotToPort inverts reqSlot.
func slotToPort(outPort, slot int) int {
	if slot < outPort {
		return slot
	}
	return slot + 1
}
