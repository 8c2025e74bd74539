package traffic

import (
	"math/rand/v2"
	"strings"
	"testing"

	"orion/internal/flit"
	"orion/internal/topology"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(42, 0)) }

func TestUniformExcludesSelf(t *testing.T) {
	u := Uniform{Nodes: 16}
	rng := newRNG()
	counts := make([]int, 16)
	for i := 0; i < 10000; i++ {
		d, ok := u.Destination(3, rng)
		if !ok {
			t.Fatal("uniform should always produce a destination")
		}
		if d == 3 {
			t.Fatal("uniform must exclude self")
		}
		counts[d]++
	}
	// Every other node should receive a roughly equal share (10000/15 ≈ 667).
	for n, c := range counts {
		if n == 3 {
			continue
		}
		if c < 400 || c > 950 {
			t.Errorf("node %d received %d packets, expected ≈667", n, c)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	if _, ok := (Uniform{Nodes: 1}).Destination(0, newRNG()); ok {
		t.Error("single-node uniform should not inject")
	}
	if _, ok := (Uniform{Nodes: 8}).Destination(-1, newRNG()); ok {
		t.Error("out-of-range source should not inject")
	}
}

func TestBroadcastCyclesAllDestinations(t *testing.T) {
	b := &Broadcast{Nodes: 16, Source: 6}
	rng := newRNG()
	if _, ok := b.Destination(3, rng); ok {
		t.Fatal("non-source node must not inject under broadcast")
	}
	seen := map[int]int{}
	for i := 0; i < 30; i++ {
		d, ok := b.Destination(6, rng)
		if !ok {
			t.Fatal("source must inject")
		}
		if d == 6 {
			t.Fatal("broadcast must not send to itself")
		}
		seen[d]++
	}
	if len(seen) != 15 {
		t.Fatalf("broadcast reached %d nodes, want 15", len(seen))
	}
	for d, c := range seen {
		if c != 2 {
			t.Errorf("node %d received %d packets in two rounds, want 2", d, c)
		}
	}
	if !strings.HasPrefix(b.Name(), "broadcast-from-") {
		t.Errorf("name = %q", b.Name())
	}
}

func TestTranspose(t *testing.T) {
	tr := Transpose{Width: 4}
	if d, ok := tr.Destination(1, newRNG()); !ok || d != 4 {
		t.Errorf("transpose(1) = %d,%v; want 4,true", d, ok)
	}
	if _, ok := tr.Destination(5, newRNG()); ok {
		t.Error("diagonal node should not inject")
	}
	if _, ok := tr.Destination(99, newRNG()); ok {
		t.Error("out-of-range source should not inject")
	}
}

func TestBitComplement(t *testing.T) {
	b := BitComplement{Nodes: 16}
	if d, ok := b.Destination(0, newRNG()); !ok || d != 15 {
		t.Errorf("bitcomp(0) = %d,%v; want 15,true", d, ok)
	}
	odd := BitComplement{Nodes: 5}
	if _, ok := odd.Destination(2, newRNG()); ok {
		t.Error("middle node of odd network should not inject")
	}
}

func TestTornado(t *testing.T) {
	tor := Tornado{Width: 4, Height: 4}
	// (0,0) goes to x = (0 + 2 - 1) % 4 = 1.
	if d, ok := tor.Destination(0, newRNG()); !ok || d != 1 {
		t.Errorf("tornado(0) = %d,%v; want 1,true", d, ok)
	}
	if _, ok := (Tornado{Width: 1, Height: 4}).Destination(0, newRNG()); ok {
		t.Error("width-1 tornado should not inject")
	}
}

func TestHotspot(t *testing.T) {
	h := Hotspot{Nodes: 16, Hot: 5, Fraction: 1.0}
	rng := newRNG()
	for i := 0; i < 50; i++ {
		d, ok := h.Destination(2, rng)
		if !ok || d != 5 {
			t.Fatalf("fraction-1 hotspot should always hit the hot node, got %d", d)
		}
	}
	// The hot node itself falls back to uniform.
	d, ok := h.Destination(5, rng)
	if !ok || d == 5 {
		t.Errorf("hot node destination = %d,%v", d, ok)
	}
}

func TestNeighbor(t *testing.T) {
	n := Neighbor{Width: 4, Height: 4}
	if d, ok := n.Destination(3, newRNG()); !ok || d != 0 {
		t.Errorf("neighbor(3) = %d,%v; want wraparound to 0", d, ok)
	}
	if d, ok := n.Destination(4, newRNG()); !ok || d != 5 {
		t.Errorf("neighbor(4) = %d,%v; want 5", d, ok)
	}
}

func TestPatternNames(t *testing.T) {
	pats := []Pattern{
		Uniform{}, &Broadcast{}, Transpose{}, BitComplement{},
		Tornado{}, Hotspot{}, Neighbor{},
	}
	for _, p := range pats {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

func testTopo(t *testing.T) *topology.Grid {
	t.Helper()
	tp, err := topology.New([]int{4, 4}, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		Pattern:      Uniform{Nodes: 16},
		Rates:        UniformRates(16, 0.1),
		PacketLength: 5,
		FlitBits:     32,
	}
	if err := good.Validate(16); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Pattern = nil },
		func(c *Config) { c.Rates = UniformRates(8, 0.1) },
		func(c *Config) { c.Rates[3] = -0.1 },
		func(c *Config) { c.Rates[3] = 1.5 },
		func(c *Config) { c.PacketLength = 0 },
		func(c *Config) { c.FlitBits = -1 },
	}
	for i, mutate := range cases {
		c := good
		c.Rates = append([]float64(nil), good.Rates...)
		mutate(&c)
		if err := c.Validate(16); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRateHelpers(t *testing.T) {
	r := UniformRates(4, 0.25)
	if len(r) != 4 || r[2] != 0.25 {
		t.Errorf("UniformRates = %v", r)
	}
	s := SingleSourceRates(4, 2, 0.2)
	if s[2] != 0.2 || s[0] != 0 || s[1] != 0 || s[3] != 0 {
		t.Errorf("SingleSourceRates = %v", s)
	}
	if out := SingleSourceRates(4, 9, 0.2); out[0] != 0 {
		t.Errorf("out-of-range source should produce zero rates, got %v", out)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{
		Pattern:      Uniform{Nodes: 16},
		Rates:        UniformRates(16, 0.3),
		PacketLength: 5,
		FlitBits:     64,
		Seed:         7,
	}
	run := func() []int64 {
		g, err := NewGenerator(cfg, testTopo(t))
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		for c := int64(0); c < 50; c++ {
			pkts, err := g.Tick(c, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				ids = append(ids, p.Packet.ID, int64(p.Packet.Src), int64(p.Packet.Dst))
			}
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("generator is not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator is not deterministic")
		}
	}
}

func TestGeneratorPacketShape(t *testing.T) {
	cfg := Config{
		Pattern:      Uniform{Nodes: 16},
		Rates:        UniformRates(16, 1.0),
		PacketLength: 5,
		FlitBits:     256,
		Seed:         1,
	}
	g, err := NewGenerator(cfg, testTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := g.Tick(10, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 16 {
		t.Fatalf("rate 1.0 should inject at every node, got %d", len(pkts))
	}
	for _, p := range pkts {
		if p.Packet.CreatedAt != 10 || !p.Packet.Sample {
			t.Error("packet metadata wrong")
		}
		if len(p.Flits) != 5 {
			t.Fatalf("packet has %d flits, want 5", len(p.Flits))
		}
		if p.Flits[0].Kind != flit.Head || p.Flits[4].Kind != flit.Tail {
			t.Error("head/tail kinds wrong")
		}
		for i := 1; i < 4; i++ {
			if p.Flits[i].Kind != flit.Body {
				t.Error("interior flits should be body")
			}
		}
		for _, f := range p.Flits {
			if len(f.Payload) != 4 {
				t.Fatalf("256-bit payload should be 4 words, got %d", len(f.Payload))
			}
			if f.Packet != p.Packet {
				t.Error("flit should point at its packet")
			}
		}
		if last := p.Packet.Route[len(p.Packet.Route)-1]; last != topology.PortLocal {
			t.Error("route must end with ejection")
		}
	}
	// Single-flit packets are head-tails.
	cfg.PacketLength = 1
	g2, err := NewGenerator(cfg, testTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g2.MakePacket(0, 5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Flits[0].Kind != flit.HeadTail {
		t.Error("single-flit packet should be headtail")
	}
}

func TestGeneratorErrors(t *testing.T) {
	cfg := Config{
		Pattern:      Uniform{Nodes: 16},
		Rates:        UniformRates(16, 0.5),
		PacketLength: 5,
		FlitBits:     32,
	}
	if _, err := NewGenerator(cfg, nil); err == nil {
		t.Error("nil topology should be rejected")
	}
	bad := cfg
	bad.Rates = nil
	if _, err := NewGenerator(bad, testTopo(t)); err == nil {
		t.Error("invalid config should be rejected")
	}
	g, err := NewGenerator(cfg, testTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.MakePacket(0, 99, 0, false); err == nil {
		t.Error("route to invalid destination should fail")
	}
}

func TestGeneratorRateAccuracy(t *testing.T) {
	cfg := Config{
		Pattern:      Uniform{Nodes: 16},
		Rates:        UniformRates(16, 0.1),
		PacketLength: 5,
		FlitBits:     32,
		Seed:         3,
	}
	g, err := NewGenerator(cfg, testTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	cycles := int64(5000)
	for c := int64(0); c < cycles; c++ {
		pkts, err := g.Tick(c, false)
		if err != nil {
			t.Fatal(err)
		}
		total += len(pkts)
	}
	want := 0.1 * float64(cycles) * 16
	if f := float64(total); f < 0.9*want || f > 1.1*want {
		t.Errorf("generated %d packets over %d cycles, want ≈%.0f", total, cycles, want)
	}
}

func TestParseTrace(t *testing.T) {
	src := `
# cycle src dst
10 0 5
3 1 2

5 2 7
`
	recs, err := ParseTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if recs[0].Cycle != 3 || recs[1].Cycle != 5 || recs[2].Cycle != 10 {
		t.Errorf("records not sorted by cycle: %v", recs)
	}
	if recs[2].Src != 0 || recs[2].Dst != 5 {
		t.Errorf("record fields wrong: %+v", recs[2])
	}
}

func TestParseTraceErrors(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader("1 2")); err == nil {
		t.Error("short line should fail")
	}
	if _, err := ParseTrace(strings.NewReader("a b c")); err == nil {
		t.Error("non-numeric line should fail")
	}
	if _, err := ParseTrace(strings.NewReader("-1 0 0")); err == nil {
		t.Error("negative cycle should fail")
	}
}

func TestTraceReplay(t *testing.T) {
	recs := []TraceRecord{{Cycle: 2, Src: 0, Dst: 5}, {Cycle: 2, Src: 1, Dst: 1}, {Cycle: 4, Src: 3, Dst: 9}}
	tr := NewTrace(recs)
	cfg := Config{
		Pattern:      Uniform{Nodes: 16},
		Rates:        UniformRates(16, 0),
		PacketLength: 2,
		FlitBits:     32,
	}
	g, err := NewGenerator(cfg, testTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Done() {
		t.Error("fresh trace should not be done")
	}
	pkts, err := tr.Tick(g, 1, false)
	if err != nil || len(pkts) != 0 {
		t.Fatalf("cycle 1 should produce nothing, got %d (%v)", len(pkts), err)
	}
	pkts, err = tr.Tick(g, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	// The self-send (1→1) is skipped.
	if len(pkts) != 1 || pkts[0].Packet.Dst != 5 {
		t.Fatalf("cycle 2 replay wrong: %v", pkts)
	}
	if tr.Remaining() != 1 {
		t.Errorf("Remaining = %d, want 1", tr.Remaining())
	}
	pkts, err = tr.Tick(g, 100, false)
	if err != nil || len(pkts) != 1 {
		t.Fatalf("catch-up replay wrong: %d (%v)", len(pkts), err)
	}
	if !tr.Done() {
		t.Error("trace should be done")
	}
}
