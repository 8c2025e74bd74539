package cliconfig

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"orion"
)

// build parses argv against spec's flags as a command would.
func build(spec Spec, argv ...string) (orion.Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, spec)
	if err := fs.Parse(argv); err != nil {
		return orion.Config{}, err
	}
	return f.Config()
}

// TestConfigsMatchRecorded builds the Config for every config-flag
// command line in the commands' doc comments, README, DESIGN.md, CI
// and scripts, plus rows covering each flag, and compares it with the
// Config the commands built before they shared this package, recorded
// in testdata/configs.golden (command, argv, Sim.Workers, canonical
// JSON). Mode and output flags (-journal, -csv, -snapshot, ...) are
// left out of the argv: they do not touch the Config.
//
// The recorded configs differ from today's in two intended ways only:
//   - -chip2chip now sets ChipToChip4x4's 1 GHz clock in cmd/orion and
//     cmd/orion-power too (orion-sweep always did); an explicit -freq
//     still wins.
//   - orion-power's Config is only fed to the power models, which
//     ignore Sim.Deadlock and run non-VC routers with one VC whatever
//     Router.VCs says; it now keeps -vcs for every router and uses
//     DeadlockNone, and prints byte-identical reports.
func TestConfigsMatchRecorded(t *testing.T) {
	specs := map[string]Spec{"orion": Orion, "orion-sweep": Sweep, "orion-power": Power}
	f, err := os.Open("testdata/configs.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	rows := 0
	for sc.Scan() {
		cols := strings.Split(sc.Text(), "\t")
		if len(cols) != 4 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		cmd, argv := cols[0], strings.Fields(cols[1])
		rows++
		t.Run(cmd+" "+cols[1], func(t *testing.T) {
			var want orion.Config
			if err := json.Unmarshal([]byte(cols[3]), &want); err != nil {
				t.Fatal(err)
			}
			if want.Sim.Workers, err = strconv.Atoi(cols[2]); err != nil {
				t.Fatal(err)
			}
			got, err := build(specs[cmd], argv...)
			if err != nil {
				t.Fatal(err)
			}
			if cmd != "orion-sweep" && slices.Contains(argv, "-chip2chip") && !slices.Contains(argv, "-freq") {
				want.Tech.FreqGHz = 1
			}
			if cmd == "orion-power" {
				want.Sim.Deadlock = orion.DeadlockNone
				if want.Router.Kind != orion.VirtualChannel {
					want.Router.VCs = got.Router.VCs
				}
			}
			gotJSON, _ := orion.ConfigJSON(got)
			wantJSON, _ := orion.ConfigJSON(want)
			if string(gotJSON) != string(wantJSON) || got.Sim.Workers != want.Sim.Workers {
				t.Errorf("config differs\n got (workers %d): %s\nwant (workers %d): %s",
					got.Sim.Workers, gotJSON, want.Sim.Workers, wantJSON)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows < 60 {
		t.Fatalf("golden file has %d rows, want the full table", rows)
	}
}

// TestConfigErrors: bad flags come back as errors naming the flag or the
// Config field, after Config.Validate, instead of exiting or failing
// later inside a run.
func TestConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		argv []string
		want string
	}{
		{"negative samples", Sweep, []string{"-samples", "-5"}, "Sim.SamplePackets"},
		{"cb router with the default depth", Sweep, []string{"-router", "cb"}, "buffer depth"},
		{"unknown router", Orion, []string{"-router", "quantum"}, "-router"},
		{"unknown preset", Sweep, []string{"-preset", "vc7"}, "-preset"},
		{"unknown pattern", Orion, []string{"-pattern", "zigzag"}, "-pattern"},
		{"unknown deadlock mode", Orion, []string{"-deadlock", "prayer"}, "-deadlock"},
		{"unknown invariant mode", Sweep, []string{"-invariants", "maybe"}, "-invariants"},
		{"unknown arbiter", Power, []string{"-arbiter", "lottery"}, "-arbiter"},
		{"unknown fault kind", Orion, []string{"-fault-links", "1", "-fault-kind", "meteor"}, "-fault-kind"},
		{"bad fault spec", Orion, []string{"-faults", "link-stall:0"}, "-faults"},
		{"bad topology", Sweep, []string{"-topology", "ring9"}, "-topology"},
		{"missing config file", Orion, []string{"-config", "testdata/missing.json"}, "-config"},
		{"negative workers", Sweep, []string{"-workers", "-1"}, "Sim.Workers"},
		{"negative point timeout", Sweep, []string{"-point-timeout", "-1s"}, "Sim.PointTimeout"},
		{"rate outside [0,1]", Orion, []string{"-rate", "2"}, "Traffic.Rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := build(tc.spec, tc.argv...)
			if err == nil {
				t.Fatalf("%v accepted", tc.argv)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEnumSpellings: every CLI accepts the same names for an enum, the
// names a JSON config file accepts.
func TestEnumSpellings(t *testing.T) {
	for _, spec := range []Spec{Orion, Sweep, Power} {
		for name, want := range map[string]orion.RouterKind{
			"vc": orion.VirtualChannel, "virtual-channel": orion.VirtualChannel,
			"wormhole": orion.Wormhole, "wh": orion.Wormhole,
			"cb": orion.CentralBuffered, "central-buffered": orion.CentralBuffered,
		} {
			cfg, err := build(spec, "-router", name, "-depth", "64")
			if err != nil || cfg.Router.Kind != want {
				t.Errorf("-router %s: %v, %v; want %v", name, cfg.Router.Kind, err, want)
			}
		}
	}
	for _, name := range []string{"roundrobin", "round-robin", "rr"} {
		if cfg, err := build(Power, "-arbiter", name); err != nil || cfg.Sim.Arbiter != orion.RoundRobinArbiter {
			t.Errorf("-arbiter %s: %v, %v", name, cfg.Sim.Arbiter, err)
		}
	}
}

// TestChipToChipOverrides: -chip2chip means ChipToChip4x4's link and
// clock in every command, and explicit -freq and -link-watts win
// wherever they appear on the command line.
func TestChipToChipOverrides(t *testing.T) {
	c2c := orion.ChipToChip4x4(orion.CB(), 0)
	for _, spec := range []Spec{Orion, Sweep, Power} {
		cfg, err := build(spec, "-chip2chip", "-router", "cb", "-depth", "64")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Link != c2c.Link || cfg.Tech.FreqGHz != c2c.Tech.FreqGHz {
			t.Errorf("-chip2chip gave link %+v at %g GHz, want %+v at %g GHz",
				cfg.Link, cfg.Tech.FreqGHz, c2c.Link, c2c.Tech.FreqGHz)
		}
	}
	cfg, err := build(Orion, "-freq", "1.5", "-link-watts", "5", "-chip2chip")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tech.FreqGHz != 1.5 || cfg.Link.ConstantWatts != 5 {
		t.Errorf("explicit flags lost to -chip2chip: %g GHz, %g W", cfg.Tech.FreqGHz, cfg.Link.ConstantWatts)
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates("0.02, 0.04,1,0")
	if err != nil || !slices.Equal(got, []float64{0.02, 0.04, 1, 0}) {
		t.Fatalf("ParseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"NaN", "0.1,nan", "-0.1", "1.5", "0.1,,0.2", "x", "+Inf"} {
		if rates, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) = %v, want an error", bad, rates)
		} else if !strings.HasPrefix(err.Error(), "-rates[") {
			t.Errorf("ParseRates(%q) error %q does not name the entry", bad, err)
		}
	}
}

func TestBackends(t *testing.T) {
	parse := func(argv ...string) error {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		b := BindBackends(fs)
		if err := fs.Parse(argv); err != nil {
			return err
		}
		opts, err := b.Options()
		if err == nil && len(argv) == 0 && len(opts.Backends) != 0 {
			t.Errorf("no -backends gave %v", opts.Backends)
		}
		return err
	}
	if err := parse(); err != nil {
		t.Errorf("no flags: %v", err)
	}
	if err := parse("-backends", "http://a:1,http://b:2", "-backend-retries", "5", "-no-local-fallback"); err != nil {
		t.Errorf("valid flags: %v", err)
	}
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"-backends", "ftp://a"}, "-backends[0]"},
		{[]string{"-backends", "http://a", "-backend-retries", "0"}, "-backend-retries: must be positive"},
		{[]string{"-no-local-fallback"}, "-no-local-fallback: requires -backends"},
		{[]string{"-backend-retries", "2"}, "-backend-retries: requires -backends"},
	} {
		if err := parse(tc.argv...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.argv, err, tc.want)
		}
	}
}
