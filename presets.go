package orion

// Paper configurations (Sections 4.2–4.4). These are the exact setups of
// the evaluation: a 16-node 4×4 torus; on-chip experiments use 256-bit
// flits at 2 GHz and 1.2 V in a 0.1 µm process with 3 mm links on a
// 12 mm × 12 mm chip; chip-to-chip experiments use 32-bit flits at 1 GHz
// with 3 W traffic-insensitive links. Packets are 5 flits.

// WH64 is the wormhole router with a 64-flit input buffer per port.
func WH64() RouterConfig {
	return RouterConfig{Kind: Wormhole, BufferDepth: 64, FlitBits: 256}
}

// VC16 is the virtual-channel router with 2 VCs per port and 8-flit
// buffers per VC.
func VC16() RouterConfig {
	return RouterConfig{Kind: VirtualChannel, VCs: 2, BufferDepth: 8, FlitBits: 256}
}

// VC64 is the virtual-channel router with 8 VCs per port and 8-flit
// buffers per VC.
func VC64() RouterConfig {
	return RouterConfig{Kind: VirtualChannel, VCs: 8, BufferDepth: 8, FlitBits: 256}
}

// VC128 is the virtual-channel router with 8 VCs per port and 16-flit
// buffers per VC.
func VC128() RouterConfig {
	return RouterConfig{Kind: VirtualChannel, VCs: 8, BufferDepth: 16, FlitBits: 256}
}

// XB is the input-buffered crossbar router of the central-buffer study
// (Section 4.4): 16 VCs with 268-flit buffers per VC, 32-bit flits.
func XB() RouterConfig {
	return RouterConfig{Kind: VirtualChannel, VCs: 16, BufferDepth: 268, FlitBits: 32}
}

// CB is the central-buffered router of Section 4.4: a 4-bank central
// buffer, 1 flit wide per bank, 2560 rows, 2 read and 2 write ports, with
// a 64-flit input buffer per port, 32-bit flits.
func CB() RouterConfig {
	return RouterConfig{
		Kind:        CentralBuffered,
		BufferDepth: 64,
		FlitBits:    32,
		CentralBuffer: CentralBufferConfig{
			Banks: 4, Rows: 2560, ReadPorts: 2, WritePorts: 2,
		},
	}
}

// Fig5Configs returns the four router configurations of Section 4.2 in
// presentation order.
func Fig5Configs() []struct {
	Label  string
	Router RouterConfig
} {
	return []struct {
		Label  string
		Router RouterConfig
	}{{"WH64", WH64()}, {"VC16", VC16()}, {"VC64", VC64()}, {"VC128", VC128()}}
}

// VC8 is a light virtual-channel router for large-fabric scaling studies:
// 2 VCs per port with 8-flit buffers and 64-bit flits. It keeps the
// per-router tick cheap enough that thousand-node fabrics simulate at
// interactive speed while still exercising the full VC pipeline.
func VC8() RouterConfig {
	return RouterConfig{Kind: VirtualChannel, VCs: 2, BufferDepth: 8, FlitBits: 64}
}

// OnChipMesh returns a width×height on-chip mesh (no wraparound links) at
// 2 GHz with 5-flit packets and uniform random traffic at the given
// injection rate. Meshes need no deadlock avoidance under dimension-ordered
// routing, so every router kind runs without bubble or dateline overhead —
// the configuration of the 1024-node scaling study (DESIGN.md "Scaling").
func OnChipMesh(width, height int, r RouterConfig, rate float64) Config {
	return Config{
		Width: width, Height: height, Mesh: true,
		Router:  r,
		Link:    LinkConfig{LengthMm: 3},
		Tech:    TechConfig{FreqGHz: 2},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: rate, PacketLength: 5},
	}
}

// OnChipCMesh returns a width×height concentrated mesh with c terminals
// per cluster (c·width·height nodes total): cluster hubs form a mesh and
// satellite terminals hang off their hub on dedicated spoke links, giving
// radix-(c+4) hub routers — the Balfour-Dally CMesh arrangement with
// c = 4. Like the plain mesh it is deadlock-free under dimension-ordered
// routing with no VC classes.
func OnChipCMesh(width, height, c int, r RouterConfig, rate float64) Config {
	return Config{
		Width: width, Height: height, Mesh: true, Concentration: c,
		Router:  r,
		Link:    LinkConfig{LengthMm: 3},
		Tech:    TechConfig{FreqGHz: 2},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: rate, PacketLength: 5},
	}
}

// OnChip4x4 returns the Section 4.2 on-chip experiment: a 4×4 torus at
// 2 GHz, 1.2 V, 0.1 µm, 3 mm links, 5-flit packets, uniform random
// traffic at the given injection rate, with the given router.
func OnChip4x4(r RouterConfig, rate float64) Config {
	return Config{
		Width: 4, Height: 4,
		Router:  r,
		Link:    LinkConfig{LengthMm: 3},
		Tech:    TechConfig{FreqGHz: 2},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: rate, PacketLength: 5},
	}
}

// ChipToChip4x4 returns the Section 4.4 chip-to-chip experiment: a 4×4
// torus at 1 GHz with 3 W per-port links (per the IBM InfiniBand 12X
// link), 5-flit packets, uniform random traffic at the given rate, with
// the given router (XB or CB).
func ChipToChip4x4(r RouterConfig, rate float64) Config {
	return Config{
		Width: 4, Height: 4,
		Router:  r,
		Link:    LinkConfig{ChipToChip: true, ConstantWatts: 3},
		Tech:    TechConfig{FreqGHz: 1},
		Traffic: TrafficConfig{Pattern: Uniform(), Rate: rate, PacketLength: 5},
	}
}

// BroadcastNode12 is the paper's broadcast source, node (1,2) of the 4×4
// torus (Section 4.3).
const BroadcastNode12 = 2*4 + 1
