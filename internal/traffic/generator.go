package traffic

import (
	"fmt"
	"math/rand/v2"

	"orion/internal/flit"
	"orion/internal/topology"
)

// pcgStreamTraffic salts the traffic PCG stream so a workload and a fault
// schedule sharing the same user seed still draw from independent streams.
const pcgStreamTraffic = 0x6f72696f6e2d7472 // "orion-tr"

// Config describes a workload.
type Config struct {
	// Pattern picks destinations.
	Pattern Pattern
	// Rates[n] is node n's injection probability per cycle (a Bernoulli
	// process generating at most one packet per node per cycle,
	// Section 4.1: "generates uniformly distributed traffic ... at the
	// prescribed packet injection rate").
	Rates []float64
	// PacketLength is the number of flits per packet (the paper uses 5:
	// one head plus four data flits).
	PacketLength int
	// FlitBits is the flit width in bits; payloads are random bits so
	// power models see realistic switching.
	FlitBits int
	// Seed makes the workload reproducible.
	Seed int64
}

// Validate reports an error for an unusable workload description.
func (c Config) Validate(nodes int) error {
	if c.Pattern == nil {
		return fmt.Errorf("traffic: pattern is required")
	}
	if len(c.Rates) != nodes {
		return fmt.Errorf("traffic: got %d rates for %d nodes", len(c.Rates), nodes)
	}
	for n, r := range c.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("traffic: node %d rate %g outside [0,1]", n, r)
		}
	}
	if c.PacketLength <= 0 {
		return fmt.Errorf("traffic: packet length must be positive, got %d", c.PacketLength)
	}
	if c.FlitBits <= 0 {
		return fmt.Errorf("traffic: flit width must be positive, got %d", c.FlitBits)
	}
	return nil
}

// UniformRates returns a rate vector with every node injecting at rate r.
func UniformRates(nodes int, r float64) []float64 {
	rates := make([]float64, nodes)
	for i := range rates {
		rates[i] = r
	}
	return rates
}

// SingleSourceRates returns a rate vector where only source injects, at
// rate r — the broadcast workload of Section 4.3, where "the source node
// at position (1,2) injects at the maximum rate of 0.2 packets per cycle".
func SingleSourceRates(nodes, source int, r float64) []float64 {
	rates := make([]float64, nodes)
	if source >= 0 && source < nodes {
		rates[source] = r
	}
	return rates
}

// NewPacket is one generated packet with its flits.
type NewPacket struct {
	Packet *flit.Packet
	Flits  []*flit.Flit
}

// Generator produces packets cycle by cycle. It is the "message source"
// module class of Section 2.2.
type Generator struct {
	cfg    Config
	topo   *topology.Grid
	src    *rand.PCG
	rng    *rand.Rand
	nextID int64
	words  int
	// scratch is Tick's reusable output buffer; the caller consumes the
	// returned slice before the next Tick.
	scratch []NewPacket
	// Generated counts packets created per node.
	Generated []int64

	// hot lists the nodes with a non-zero injection rate, ascending. The
	// per-cycle loop iterates it instead of all nodes: a zero-rate node
	// short-circuits before its Float64 draw, so skipping it entirely
	// leaves the RNG stream bit-identical — the single-source broadcast
	// workload then costs one draw per cycle instead of a full node scan.
	hot []int

	// recycling enables the packet free list: retired packets returned via
	// Recycle donate their Packet record, flit structs and payload backing
	// to the next MakePacket, which overwrites every field (payload words
	// are redrawn from the RNG), so a recycled packet is observably
	// identical to a fresh allocation. Off by default; the network builder
	// turns it on when no fault injection is configured (payload bit-flips
	// and drops break the "tail ejection retires the whole packet"
	// ownership rule that makes recycling safe).
	recycling bool
	free      []*packetBuf
}

// packetBuf is one free-list entry: the batch allocations of a packet.
// Packet.Buf points back here so Recycle can find the entry without a map.
type packetBuf struct {
	pkt     flit.Packet
	flits   []*flit.Flit
	backing []flit.Flit
	words   []uint64
	inUse   bool
}

// NewGenerator returns a generator for the given workload on the given
// topology.
func NewGenerator(cfg Config, topo *topology.Grid) (*Generator, error) {
	if topo == nil {
		return nil, fmt.Errorf("traffic: topology is required")
	}
	if err := cfg.Validate(topo.Nodes()); err != nil {
		return nil, err
	}
	src := rand.NewPCG(uint64(cfg.Seed), pcgStreamTraffic)
	hot := make([]int, 0, len(cfg.Rates))
	for n, r := range cfg.Rates {
		if r > 0 {
			hot = append(hot, n)
		}
	}
	return &Generator{
		cfg:       cfg,
		topo:      topo,
		src:       src,
		rng:       rand.New(src),
		words:     flit.PayloadWords(cfg.FlitBits),
		Generated: make([]int64, topo.Nodes()),
		hot:       hot,
	}, nil
}

// Idle reports whether the generator can never inject (no node has a
// positive rate), letting the run loop skip generator ticks entirely.
func (g *Generator) Idle() bool { return len(g.hot) == 0 }

// RNGState returns the generator's PCG stream state, for snapshots.
func (g *Generator) RNGState() ([]byte, error) { return g.src.MarshalBinary() }

// NextID returns the last packet ID issued, for snapshots.
func (g *Generator) NextID() int64 { return g.nextID }

// Tick generates this cycle's new packets. The sample flag tags packets
// belonging to the measurement window. The returned slice is valid only
// until the next Tick: it reuses one scratch buffer so steady-state
// generation does not allocate.
func (g *Generator) Tick(cycle int64, sample bool) ([]NewPacket, error) {
	out := g.scratch[:0]
	for _, n := range g.hot {
		if g.rng.Float64() >= g.cfg.Rates[n] {
			continue
		}
		dst, ok := g.cfg.Pattern.Destination(n, g.rng)
		if !ok {
			continue
		}
		p, err := g.MakePacket(n, dst, cycle, sample)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	g.scratch = out
	return out, nil
}

// SetRecycling enables or disables the packet free list (see the field
// doc). Safe to flip only before the first Recycle.
func (g *Generator) SetRecycling(on bool) { g.recycling = on }

// Recycle returns a retired packet's allocations to the free list. Call
// only when no live reference to the packet or any of its flits remains —
// in practice, when the tail flit leaves the destination sink and every
// observer (checker, sampler) has run. A packet not made by this
// generator, or recycled twice, is ignored. No-op unless recycling is on.
func (g *Generator) Recycle(p *flit.Packet) {
	if !g.recycling || p == nil {
		return
	}
	b, ok := p.Buf.(*packetBuf)
	if !ok || b == nil || !b.inUse || &b.pkt != p {
		return
	}
	b.inUse = false
	g.free = append(g.free, b)
}

// newBuf pops a free-list entry, or allocates one sized for the configured
// packet length. Either way every field of the returned buffer is
// (re)initialised by MakePacket before any flit escapes.
func (g *Generator) newBuf() *packetBuf {
	length := g.cfg.PacketLength
	if n := len(g.free); g.recycling && n > 0 {
		b := g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		b.inUse = true
		// Lengths are constant per generator, but guard anyway so a
		// mis-sized entry is regrown rather than sliced out of range.
		if len(b.flits) != length || len(b.backing) != length || len(b.words) != length*g.words {
			b.flits = make([]*flit.Flit, length)
			b.backing = make([]flit.Flit, length)
			b.words = make([]uint64, length*g.words)
		}
		return b
	}
	return &packetBuf{
		flits:   make([]*flit.Flit, length),
		backing: make([]flit.Flit, length),
		words:   make([]uint64, length*g.words),
		inUse:   true,
	}
}

// MakePacket creates one packet from src to dst with a source-computed
// route and random payloads. It is exported for trace replay and tests.
// Flits and payloads are carved from two batch allocations per packet —
// reused from the free list once recycling is on — and the random words
// are drawn flit by flit in the same order as always, so seeded workloads
// are unchanged.
func (g *Generator) MakePacket(src, dst int, cycle int64, sample bool) (NewPacket, error) {
	route, err := g.topo.Route(src, dst)
	if err != nil {
		return NewPacket{}, err
	}
	g.nextID++
	b := g.newBuf()
	b.pkt = flit.Packet{
		ID:        g.nextID,
		Src:       src,
		Dst:       dst,
		Route:     route,
		VCClasses: g.topo.VCClasses(src, route),
		Length:    g.cfg.PacketLength,
		CreatedAt: cycle,
		Sample:    sample,
		Buf:       b,
	}
	pkt := &b.pkt
	flits := b.flits
	backing := b.backing
	words := b.words
	for i := range flits {
		kind := flit.Body
		switch {
		case g.cfg.PacketLength == 1:
			kind = flit.HeadTail
		case i == 0:
			kind = flit.Head
		case i == g.cfg.PacketLength-1:
			kind = flit.Tail
		}
		payload := words[:g.words:g.words]
		words = words[g.words:]
		for w := range payload {
			payload[w] = g.rng.Uint64()
		}
		flit.MaskPayload(payload, g.cfg.FlitBits)
		backing[i] = flit.Flit{
			Packet:  pkt,
			Seq:     i,
			Kind:    kind,
			Payload: payload,
		}
		flits[i] = &backing[i]
	}
	g.Generated[src]++
	return NewPacket{Packet: pkt, Flits: flits}, nil
}
