package orion

import (
	"errors"
	"testing"
)

// FuzzLoadConfigJSON throws arbitrary bytes at the config loader. It must
// never panic: either the input is rejected with an error, or it yields a
// validated config that round-trips through ConfigJSON.
func FuzzLoadConfigJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Width": 4, "Height": 4}`))
	f.Add([]byte(`{"Router": {"Kind": "vc", "VCs": 2, "BufferDepth": 8, "FlitBits": 64}}`))
	f.Add([]byte(`{"Traffic": {"Pattern": "transpose", "Rate": 0.1}, "Sim": {"SamplePackets": 10}}`))
	f.Add([]byte(`{"Faults": {"Seed": 1, "Faults": [{"Kind": "link-drop", "Node": 0, "Port": 0}]},
		"CheckInvariants": "on"}`))
	f.Add([]byte(`{"Width": -1, "Traffic": {"Rate": 99}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"Width": 1e999}`))
	good, err := ConfigJSON(fastConfig(0.05))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := LoadConfigJSON(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// A config the loader accepts must be valid and serialisable.
		if err := cfg.Validate(); err != nil {
			t.Fatalf("LoadConfigJSON accepted an invalid config: %v", err)
		}
		if _, err := ConfigJSON(cfg); err != nil {
			t.Fatalf("accepted config does not round-trip: %v", err)
		}
	})
}

// FuzzParseFaultSpec exercises the CLI fault grammar: arbitrary spec
// strings must parse or error, never panic, and parsed faults must pass
// per-fault shallow validation.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("link-stall:3:1")
	f.Add("bit-flip:0:2:1000:500:0.01,link-drop:5:0:200")
	f.Add("port-stall:0:0:0:0")
	f.Add(":::::")
	f.Add("link-stall:-1:-2:-3")
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		for i, fa := range faults {
			if fa.Kind < FaultLinkStall || fa.Kind > FaultBitFlip {
				t.Fatalf("fault %d: parsed impossible kind %d from %q", i, fa.Kind, spec)
			}
		}
	})
}

// FuzzParseTopologySpec exercises the -topology grammar. It must never
// panic; an accepted spec, applied to a base config, either fails
// Validate or builds; and on a network of at most 64 nodes every route
// walks existing links to its destination and ends on the local port.
func FuzzParseTopologySpec(f *testing.F) {
	for _, spec := range []string{
		"torus4x4", "torus4x4x4", "TORUS1x5", "torus3x3x1", "mesh5x3", "mesh32x32",
		"cmesh8x8x4", "cmesh2x2x1", " cmesh1x1x2 ", "mesh0x4", "torusx", "torus4x4x4x4",
		"torus9223372036854775807x9223372036854775807", "cmesh3x-2x4", "mesh",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseTopologySpec(spec)
		if err != nil {
			return
		}
		cfg := fastConfig(0.05)
		ts.Apply(&cfg)
		if cfg.Validate() != nil {
			return
		}
		ccfg, err := resolve(cfg)
		if err != nil {
			t.Fatalf("%q passes Validate but does not resolve: %v", spec, err)
		}
		g := ccfg.Topology
		if g.Nodes() > 64 {
			return
		}
		if _, err := NewSim(cfg); err != nil {
			t.Fatalf("%q passes Validate but does not build: %v", spec, err)
		}
		local := g.Ports() - 1
		for src := 0; src < g.Nodes(); src++ {
			for dst := 0; dst < g.Nodes(); dst++ {
				route, err := g.Route(src, dst)
				if err != nil {
					t.Fatalf("%q: Route(%d,%d): %v", spec, src, dst, err)
				}
				cur := src
				for _, p := range route[:len(route)-1] {
					next, ok := g.Neighbor(cur, p)
					if !ok {
						t.Fatalf("%q: route %d->%d = %v has no link at node %d port %d", spec, src, dst, route, cur, p)
					}
					cur = next
				}
				if cur != dst || route[len(route)-1] != local {
					t.Fatalf("%q: route %d->%d = %v ends at node %d port %d", spec, src, dst, route, cur, route[len(route)-1])
				}
			}
		}
	})
}

// FuzzLoadSnapshot throws arbitrary bytes at the snapshot decoder. The
// decoder must never panic (it is the trust boundary for resume: the file
// may be torn, truncated, or malicious), and every rejection must carry
// the typed ErrSnapshot sentinel. Accepted input must round-trip through
// Encode bit-exactly.
func FuzzLoadSnapshot(f *testing.F) {
	s, err := NewSim(fastConfig(0.05))
	if err != nil {
		f.Fatal(err)
	}
	snapshot, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	good := snapshot.Encode()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("ORSN"))
	f.Add([]byte{})
	bad := append([]byte(nil), good...)
	bad[9]++ // version byte
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("rejection lacks ErrSnapshot: %v", err)
			}
			return
		}
		re := loaded.Encode()
		if string(re) != string(data) {
			t.Fatalf("accepted snapshot does not re-encode to its input (%d vs %d bytes)", len(re), len(data))
		}
	})
}
