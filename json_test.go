package orion

import (
	"encoding/hex"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := OnChip4x4(VC64(), 0.1)
	cfg.Traffic.Pattern = BroadcastFrom(9)
	cfg.Sim.Deadlock = DeadlockDateline
	cfg.Sim.Arbiter = QueuingArbiter
	cfg.Router.Speculative = true
	cfg.Link.DVS = &DVSPolicy{WindowCycles: 128}

	data, err := ConfigJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"virtual-channel"`, `"broadcast"`, `"dateline"`, `"queuing"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}

	back, err := LoadConfigJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Router.Kind != VirtualChannel || back.Router.VCs != 8 ||
		back.Traffic.Pattern.Kind != PatternBroadcast || back.Traffic.Pattern.Source != 9 ||
		back.Sim.Deadlock != DeadlockDateline || back.Sim.Arbiter != QueuingArbiter ||
		!back.Router.Speculative || back.Link.DVS == nil || back.Link.DVS.WindowCycles != 128 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	// The round-tripped config must actually run.
	back.Sim.SamplePackets = 200
	back.Traffic.Pattern = Uniform() // broadcast at rate 0.1 is fine too, keep it quick
	if _, err := Run(back); err != nil {
		t.Fatalf("round-tripped config does not run: %v", err)
	}
}

func TestLoadConfigJSONStringEnums(t *testing.T) {
	src := `{
	  "Width": 4, "Height": 4,
	  "Router": {"Kind": "wormhole", "BufferDepth": 64, "FlitBits": 256},
	  "Link": {"LengthMm": 3},
	  "Traffic": {"Pattern": {"Kind": "uniform"}, "Rate": 0.05, "PacketLength": 5},
	  "Sim": {"SamplePackets": 200, "Deadlock": "bubble", "Arbiter": "round-robin"}
	}`
	cfg, err := LoadConfigJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Router.Kind != Wormhole || cfg.Sim.Arbiter != RoundRobinArbiter {
		t.Errorf("parsed config wrong: %+v", cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplePackets != 200 {
		t.Errorf("measured %d packets", res.SamplePackets)
	}
}

func TestLoadConfigJSONErrors(t *testing.T) {
	if _, err := LoadConfigJSON([]byte(`{`)); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := LoadConfigJSON([]byte(`{"Router": {"Kind": "quantum"}}`)); err == nil {
		t.Error("unknown router kind should fail")
	}
	if _, err := LoadConfigJSON([]byte(`{"Traffic": {"Pattern": {"Kind": "zigzag"}}}`)); err == nil {
		t.Error("unknown pattern should fail")
	}
	if _, err := LoadConfigJSON([]byte(`{"Sim": {"Deadlock": "prayer"}}`)); err == nil {
		t.Error("unknown deadlock mode should fail")
	}
	// A structurally invalid config now fails at load time, with every
	// problem reported at once under field-qualified prefixes.
	_, err := LoadConfigJSON([]byte(`{"Width": -1, "Height": 4, "Traffic": {"Rate": 2}}`))
	if err == nil {
		t.Fatal("invalid config should fail validation at load")
	}
	for _, want := range []string{"Width/Height", "Traffic.Rate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("validation error missing %q: %v", want, err)
		}
	}
	// Integer enum values stay accepted.
	cfg, err := LoadConfigJSON([]byte(`{
	  "Width": 4, "Height": 4,
	  "Router": {"Kind": 1, "BufferDepth": 64, "FlitBits": 256},
	  "Link": {"LengthMm": 3},
	  "Traffic": {"Pattern": {"Kind": "uniform"}, "Rate": 0.05, "PacketLength": 5}
	}`))
	if err != nil {
		t.Fatalf("integer enum rejected: %v", err)
	}
	if cfg.Router.Kind != Wormhole {
		t.Errorf("integer enum parsed to %v", cfg.Router.Kind)
	}
}

func TestEnumStrings(t *testing.T) {
	if PatternHotspot.String() != "hotspot" || PatternKind(99).String() != "PatternKind(99)" {
		t.Error("pattern names wrong")
	}
	if QueuingArbiter.String() != "queuing" || ArbiterKind(99).String() != "ArbiterKind(99)" {
		t.Error("arbiter names wrong")
	}
	if DeadlockNone.String() != "none" || DeadlockMode(99).String() != "DeadlockMode(99)" {
		t.Error("deadlock names wrong")
	}
}

// TestConfigDigestPinned pins ConfigDigest for every preset and for a
// config that sets every enum to a non-default value. Serve cache keys
// and journal headers depend on these bytes, so a change to how enums
// marshal must not move them.
func TestConfigDigestPinned(t *testing.T) {
	odd := OnChip4x4(VC16(), 0.1)
	odd.Traffic.Pattern = Pattern{Kind: PatternHotspot, Source: 3, Fraction: 0.4}
	odd.Sim.Arbiter = RoundRobinArbiter
	odd.Sim.Deadlock = DeadlockDateline
	odd.CheckInvariants = InvariantOn
	odd.Faults = &FaultsConfig{Seed: 2, Faults: []Fault{
		{Kind: FaultBitFlip, Node: 1, Port: 1, Rate: 0.1}, {Kind: FaultPortStall, Node: 2, Port: 0}}}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"WH64", OnChip4x4(WH64(), 0.1), "7a8b213991c97f2d5a394e4148b95f878aac4ad6588e941e259d49bd852e5c69"},
		{"VC16", OnChip4x4(VC16(), 0.1), "075b8e733892be066314c0a1c0133e17ef5a18df395c9d1fa209b8a6d52716ee"},
		{"VC64", OnChip4x4(VC64(), 0.1), "eda6c68eee279bc4e36c55879d99aee20814447e99c54642e1ac25f795ba7a0c"},
		{"VC128", OnChip4x4(VC128(), 0.1), "0878ce9d2dc33d715501e4282f5979242e8aa18005f0566434a775d9414f21b8"},
		{"VC8", OnChip4x4(VC8(), 0.1), "a4bb450de8b57c4cd983dbaaafb8bc4f8365f94df54e330f8f556864c01629b0"},
		{"XB", ChipToChip4x4(XB(), 0.1), "ffadd466be2822ab671cabe692c9a8dd10c3f3a7388f6e43a4ff59daf5e2261b"},
		{"CB", ChipToChip4x4(CB(), 0.1), "9698a7b33b27a82c4abdc352f65241987a6e4bf6d6e293e17755ee38231e6159"},
		{"mesh", OnChipMesh(32, 32, VC8(), 0.005), "afc6f246987e20d58900797fdd7940ea14676b45d3dd63fa163a261043b1574e"},
		{"cmesh", OnChipCMesh(16, 16, 4, VC8(), 0.005), "04e574a5f974a9bca6d7d9eb3555df1e426709b317ba0d55489fa82ab54bfbf9"},
		{"every enum", odd, "8fe3d9031d5ecc75ec8ab5f14897de61522f9e869ad28d9bd9a90ed1603e3bd7"},
	} {
		d, err := ConfigDigest(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hex.EncodeToString(d); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestEnumAliases: the short names the command-line flags have always
// accepted parse in JSON configs too, and text round-trips through the
// canonical name.
func TestEnumAliases(t *testing.T) {
	cfg, err := LoadConfigJSON([]byte(`{
	  "Width": 4, "Height": 4,
	  "Router": {"Kind": "wh", "BufferDepth": 64, "FlitBits": 256},
	  "Link": {"LengthMm": 3},
	  "Traffic": {"Pattern": {"Kind": "bitcomp"}, "Rate": 0.05, "PacketLength": 5},
	  "Sim": {"Arbiter": "rr"},
	  "Faults": {"Seed": 1, "Faults": [{"Kind": "bitflip", "Node": 0, "Port": 1, "Rate": 0.1}]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Router.Kind != Wormhole || cfg.Traffic.Pattern.Kind != PatternBitComplement ||
		cfg.Sim.Arbiter != RoundRobinArbiter || cfg.Faults.Faults[0].Kind != FaultBitFlip {
		t.Errorf("aliases parsed wrong: %+v", cfg)
	}
	var k RouterKind
	if err := k.UnmarshalText([]byte("cb")); err != nil || k != CentralBuffered {
		t.Fatalf("UnmarshalText(cb) = %v, %v", k, err)
	}
	if text, _ := k.MarshalText(); string(text) != "central-buffered" {
		t.Errorf("MarshalText = %q, want the canonical name", text)
	}
	if err := k.UnmarshalText([]byte("quantum")); err == nil {
		t.Error("unknown router kind accepted")
	}
}
