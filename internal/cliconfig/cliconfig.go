// Package cliconfig owns the command-line spelling of orion.Config. One
// table holds every config flag — its name, usage text and setter — for
// cmd/orion, cmd/orion-sweep and cmd/orion-power; each command binds the
// subset it exposes over a base Config holding its defaults. The
// remote-backend flags shared by orion-sweep and orion-serve are bound
// here too.
//
// Enum flags parse through the orion enum types' UnmarshalText, so a
// flag accepts exactly the names a JSON config file does.
package cliconfig

import (
	"encoding"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"orion"
	"orion/internal/remote"
)

// Spec is one command's config-flag surface.
type Spec struct {
	// Base holds the command's defaults. A flag's default is read from
	// it, except where the flag only matters in another configuration
	// (the central-buffer sizes, the chip-to-chip link power, the
	// hotspot fraction), whose defaults are the paper's values.
	Base orion.Config
	// Flags names the config flags the command exposes.
	Flags []string
	// FaultKind is the kind of the -fault-links random link faults,
	// and the -fault-kind default.
	FaultKind orion.FaultKind
}

// Flags is a command's bound config flags.
type Flags struct {
	fs     *flag.FlagSet
	base   orion.Config
	bound  []bound
	faults faultFlags
}

// bound is one declared flag and the setter that applies its parsed
// value to a Config.
type bound struct {
	entry
	apply func(*orion.Config) error
}

// faultFlags are the fault-injection flags. They describe a fault
// schedule rather than Config fields, so Config applies them last, once
// the topology the random link faults are drawn from is final.
type faultFlags struct {
	spec                  string
	links                 int
	kind                  string
	seed, start, duration int64
	rate                  float64
}

// Bind declares the flags spec names on fs. A name missing from the
// table panics: flag lists are fixed at compile time.
func Bind(fs *flag.FlagSet, spec Spec) *Flags {
	f := &Flags{fs: fs, base: spec.Base, faults: faultFlags{kind: spec.FaultKind.String(), seed: 1, rate: 0.01}}
	want := make(map[string]bool, len(spec.Flags))
	for _, name := range spec.Flags {
		want[name] = true
	}
	for _, e := range table {
		if want[e.name] {
			f.bound = append(f.bound, bound{e, e.declare(fs, f)})
			delete(want, e.name)
		}
	}
	for name := range want {
		panic("cliconfig: no config flag -" + name)
	}
	return f
}

// Config builds the configuration once fs is parsed: the base, then
// every flag given on the command line applied in table order (so a
// -preset or -config replaces what earlier flags set, and later flags
// refine it), then the fault flags. The result has passed
// Config.Validate; errors name the flag or the Config field at fault.
func (f *Flags) Config() (orion.Config, error) {
	given := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
	cfg := f.base
	for _, b := range f.bound {
		if b.apply == nil || !(given[b.name] || b.always) {
			continue
		}
		if err := b.apply(&cfg); err != nil {
			return orion.Config{}, fmt.Errorf("-%s: %w", b.name, err)
		}
	}
	if err := f.faults.apply(&cfg); err != nil {
		return orion.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return orion.Config{}, err
	}
	return cfg, nil
}

// apply adds the -faults schedule and the -fault-links random faults,
// replacing any schedule a -config file carried.
func (ff *faultFlags) apply(cfg *orion.Config) error {
	var faults []orion.Fault
	if ff.spec != "" {
		fs, err := orion.ParseFaultSpec(ff.spec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		faults = fs
	}
	if ff.links > 0 {
		var kind orion.FaultKind
		if err := kind.UnmarshalText([]byte(ff.kind)); err != nil {
			return fmt.Errorf("-fault-kind: %w", err)
		}
		rate := 0.0
		if kind == orion.FaultBitFlip {
			rate = ff.rate
		}
		fs, err := orion.RandomLinkFaults(*cfg, ff.seed, ff.links, kind, ff.start, ff.duration, rate)
		if err != nil {
			return fmt.Errorf("-fault-links: %w", err)
		}
		faults = append(faults, fs...)
	}
	if len(faults) > 0 {
		cfg.Faults = &orion.FaultsConfig{Seed: ff.seed, Faults: faults}
	}
	return nil
}

// ParseRates parses a comma-separated injection-rate list, rejecting
// entries that are not numbers in [0,1].
func ParseRates(list string) ([]float64, error) {
	var rates []float64
	for i, tok := range strings.Split(list, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("-rates[%d]: %w", i, err)
		}
		if !(r >= 0 && r <= 1) {
			return nil, fmt.Errorf("-rates[%d]: injection rate %g outside [0,1]", i, r)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// Backends are the remote-dispatch flags of orion-sweep and orion-serve.
type Backends struct {
	fs   *flag.FlagSet
	list string
	opts remote.Options
}

// BindBackends declares -backends, -no-local-fallback and
// -backend-retries on fs.
func BindBackends(fs *flag.FlagSet) *Backends {
	b := &Backends{fs: fs}
	fs.StringVar(&b.list, "backends", "",
		"comma-separated orion-serve base URLs (http://host:port); sweep points are dispatched to these backends over HTTP, with circuit breakers and local fallback")
	fs.BoolVar(&b.opts.NoLocalFallback, "no-local-fallback", false,
		"with -backends: fail a point (typed backend-down error) when every backend is unreachable, instead of running it locally")
	fs.IntVar(&b.opts.Retries, "backend-retries", 3,
		"with -backends: HTTP dispatch attempts per point before degrading to local execution")
	return b
}

// Options validates the flags and returns the pool options they spell.
// Options.Backends is empty when -backends was not given; the tuning
// flags are then rejected, since there is nothing for them to tune.
func (b *Backends) Options() (remote.Options, error) {
	opts := b.opts
	if b.list != "" {
		urls, err := remote.ParseBackends(b.list)
		if err != nil {
			return remote.Options{}, fmt.Errorf("-%w", err)
		}
		opts.Backends = urls
	}
	if opts.Retries <= 0 {
		return remote.Options{}, fmt.Errorf("-backend-retries: must be positive, got %d", opts.Retries)
	}
	if b.list == "" {
		for _, name := range []string{"no-local-fallback", "backend-retries"} {
			var given bool
			b.fs.Visit(func(fl *flag.Flag) { given = given || fl.Name == name })
			if given {
				return remote.Options{}, fmt.Errorf("-%s: requires -backends", name)
			}
		}
	}
	return opts, nil
}

// entry is one row of the flag table.
type entry struct {
	name, usage string
	// always applies the flag's value even when it is not given, so
	// its default overrides a -config file.
	always bool
	// declare registers the flag on fs and returns its setter, or nil
	// for the fault flags, which Config applies last.
	declare func(fs *flag.FlagSet, f *Flags) func(*orion.Config) error
}

// flagType lists the value types the flag package declares natively.
type flagType interface {
	int | int64 | float64 | bool | string | time.Duration
}

// declareVar registers p as a flag whose default is p's current value.
func declareVar[T flagType](fs *flag.FlagSet, p *T, name, usage string) {
	switch p := any(p).(type) {
	case *int:
		fs.IntVar(p, name, *p, usage)
	case *int64:
		fs.Int64Var(p, name, *p, usage)
	case *float64:
		fs.Float64Var(p, name, *p, usage)
	case *bool:
		fs.BoolVar(p, name, *p, usage)
	case *string:
		fs.StringVar(p, name, *p, usage)
	case *time.Duration:
		fs.DurationVar(p, name, *p, usage)
	}
}

// with is a flag of type T whose default comes from the base config and
// whose parsed value set applies to a Config.
func with[T flagType](name, usage string, def func(base *orion.Config) T, set func(*orion.Config, T) error) entry {
	return entry{name: name, usage: usage,
		declare: func(fs *flag.FlagSet, f *Flags) func(*orion.Config) error {
			v := def(&f.base)
			declareVar(fs, &v, name, usage)
			return func(c *orion.Config) error { return set(c, v) }
		}}
}

// field is a flag bound straight to one Config field.
func field[T flagType](name, usage string, at func(*orion.Config) *T) entry {
	return with(name, usage, func(b *orion.Config) T { return *at(b) },
		func(c *orion.Config, v T) error { *at(c) = v; return nil })
}

// only is a field flag that applies only when the configuration it is
// meaningful for is selected (an earlier flag in the table, or the base,
// selects it); def is its default.
func only[T flagType](name, usage string, def T, when func(*orion.Config) bool, at func(*orion.Config) *T) entry {
	return with(name, usage, func(*orion.Config) T { return def },
		func(c *orion.Config, v T) error {
			if when(c) {
				*at(c) = v
			}
			return nil
		})
}

// text is a string flag with no default whose value set applies.
func text(name, usage string, set func(*orion.Config, string) error) entry {
	return with(name, usage, func(*orion.Config) string { return "" }, set)
}

// always marks e as applied even when not given on the command line.
func always(e entry) entry {
	e.always = true
	return e
}

// enum is a flag parsed by an orion enum type's UnmarshalText.
func enum(name, usage string, at func(*orion.Config) textValue) entry {
	return with(name, usage,
		func(b *orion.Config) string { t, _ := at(b).MarshalText(); return string(t) },
		func(c *orion.Config, s string) error { return at(c).UnmarshalText([]byte(s)) })
}

type textValue interface {
	encoding.TextMarshaler
	encoding.TextUnmarshaler
}

// faultFlag is a fault-injection flag, bound to Flags.faults. KIND in
// its usage reads as the command's random fault kind.
func faultFlag[T flagType](name, usage string, at func(*faultFlags) *T) entry {
	return entry{name: name, usage: usage,
		declare: func(fs *flag.FlagSet, f *Flags) func(*orion.Config) error {
			declareVar(fs, at(&f.faults), name, strings.ReplaceAll(usage, "KIND", f.faults.kind))
			return nil
		}}
}

var (
	cb  = orion.CB().CentralBuffer
	c2c = orion.ChipToChip4x4(orion.RouterConfig{}, 0)

	// presets are orion-sweep's -preset names: the paper's routers with
	// their link and clock.
	presets = map[string]orion.Config{
		"wh64":  orion.OnChip4x4(orion.WH64(), 0),
		"vc16":  orion.OnChip4x4(orion.VC16(), 0),
		"vc64":  orion.OnChip4x4(orion.VC64(), 0),
		"vc128": orion.OnChip4x4(orion.VC128(), 0),
		"xb":    orion.ChipToChip4x4(orion.XB(), 0),
		"cb":    orion.ChipToChip4x4(orion.CB(), 0),
	}
	// routerFlagNames spells the -router default the way the flag always
	// has; parsing goes through RouterKind.UnmarshalText.
	routerFlagNames = map[orion.RouterKind]string{
		orion.VirtualChannel: "vc", orion.Wormhole: "wormhole", orion.CentralBuffered: "cb",
	}
)

const defaultHotspotFraction = 0.2

func isCB(c *orion.Config) bool         { return c.Router.Kind == orion.CentralBuffered }
func isChipToChip(c *orion.Config) bool { return c.Link.ChipToChip }
func isHotspot(c *orion.Config) bool    { return c.Traffic.Pattern.Kind == orion.PatternHotspot }
func hasSource(c *orion.Config) bool {
	return isHotspot(c) || c.Traffic.Pattern.Kind == orion.PatternBroadcast
}

// table is every config flag, in the order Config applies them.
var table = []entry{
	field("width", "network width", func(c *orion.Config) *int { return &c.Width }),
	field("height", "network height", func(c *orion.Config) *int { return &c.Height }),
	field("z", "third dimension radix (k-ary 3-cube; torus only)", func(c *orion.Config) *int { return &c.Depth }),
	field("mesh", "mesh instead of torus", func(c *orion.Config) *bool { return &c.Mesh }),

	with("router", "router kind: vc (virtual-channel), wormhole (wh), cb (central-buffered)",
		func(b *orion.Config) string { return routerFlagNames[b.Router.Kind] },
		func(c *orion.Config, s string) error {
			if err := c.Router.Kind.UnmarshalText([]byte(s)); err != nil {
				return err
			}
			if isCB(c) && c.Router.CentralBuffer == (orion.CentralBufferConfig{}) {
				c.Router.CentralBuffer = cb
			}
			return nil
		}),
	field("vcs", "virtual channels per port (vc router)", func(c *orion.Config) *int { return &c.Router.VCs }),
	field("depth", "input buffer depth in flits (per VC for vc routers)", func(c *orion.Config) *int { return &c.Router.BufferDepth }),
	field("flits", "flit width in bits", func(c *orion.Config) *int { return &c.Router.FlitBits }),
	only("cb-banks", "central buffer banks (cb router)", cb.Banks, isCB,
		func(c *orion.Config) *int { return &c.Router.CentralBuffer.Banks }),
	only("cb-rows", "central buffer rows per bank (cb router)", cb.Rows, isCB,
		func(c *orion.Config) *int { return &c.Router.CentralBuffer.Rows }),
	only("cb-read", "central buffer read ports (cb router)", cb.ReadPorts, isCB,
		func(c *orion.Config) *int { return &c.Router.CentralBuffer.ReadPorts }),
	only("cb-write", "central buffer write ports (cb router)", cb.WritePorts, isCB,
		func(c *orion.Config) *int { return &c.Router.CentralBuffer.WritePorts }),

	field("link-mm", "on-chip link length in mm", func(c *orion.Config) *float64 { return &c.Link.LengthMm }),
	with("chip2chip", "chip-to-chip links at the paper's Section 4.4 setup: 3 W constant-power links, 1 GHz clock (-link-watts and -freq override)",
		func(b *orion.Config) bool { return b.Link.ChipToChip },
		func(c *orion.Config, on bool) error {
			if on {
				c.Link, c.Tech.FreqGHz = c2c.Link, c2c.Tech.FreqGHz
			}
			return nil
		}),
	only("link-watts", "chip-to-chip link power in W (with -chip2chip)", c2c.Link.ConstantWatts, isChipToChip,
		func(c *orion.Config) *float64 { return &c.Link.ConstantWatts }),
	field("freq", "clock frequency in GHz", func(c *orion.Config) *float64 { return &c.Tech.FreqGHz }),
	field("vdd", "supply voltage override in V (0 = process default)", func(c *orion.Config) *float64 { return &c.Tech.Vdd }),
	field("feature", "feature size in µm (0 = 0.1)", func(c *orion.Config) *float64 { return &c.Tech.FeatureUm }),

	text("preset", "paper configuration, replacing the router, link and clock flags: wh64, vc16, vc64, vc128, xb, cb",
		func(c *orion.Config, name string) error {
			p, ok := presets[strings.ToLower(name)]
			if !ok {
				return fmt.Errorf("unknown preset %q", name)
			}
			c.Router, c.Link, c.Tech = p.Router, p.Link, p.Tech
			return nil
		}),
	text("topology", "topology spec overriding -width/-height/-z/-mesh and the preset's 4x4 torus: torusWxH, torusWxHxD, meshWxH (e.g. mesh32x32), cmeshWxHxC",
		func(c *orion.Config, s string) error {
			spec, err := orion.ParseTopologySpec(s)
			if err != nil {
				return err
			}
			spec.Apply(c)
			return nil
		}),

	with("pattern", "traffic: uniform, broadcast, transpose, bitcomp, tornado, hotspot, neighbor",
		func(b *orion.Config) string { return b.Traffic.Pattern.Kind.String() },
		func(c *orion.Config, s string) error {
			var k orion.PatternKind
			if err := k.UnmarshalText([]byte(s)); err != nil {
				return err
			}
			c.Traffic.Pattern = orion.Pattern{Kind: k}
			if isHotspot(c) {
				c.Traffic.Pattern.Fraction = defaultHotspotFraction
			}
			return nil
		}),
	only("source", "broadcast source / hotspot node", 0, hasSource,
		func(c *orion.Config) *int { return &c.Traffic.Pattern.Source }),
	only("fraction", "hotspot traffic fraction", defaultHotspotFraction, isHotspot,
		func(c *orion.Config) *float64 { return &c.Traffic.Pattern.Fraction }),
	field("rate", "injection rate in packets/cycle/node", func(c *orion.Config) *float64 { return &c.Traffic.Rate }),
	field("packet", "packet length in flits", func(c *orion.Config) *int { return &c.Traffic.PacketLength }),
	field("seed", "workload seed", func(c *orion.Config) *int64 { return &c.Traffic.Seed }),
	field("samples", "measured sample packets (per point in a sweep)", func(c *orion.Config) *int { return &c.Sim.SamplePackets }),
	field("warmup", "warm-up cycles", func(c *orion.Config) *int64 { return &c.Sim.WarmupCycles }),
	enum("deadlock", "torus deadlock avoidance: bubble, dateline, none", func(c *orion.Config) textValue { return &c.Sim.Deadlock }),
	field("muxtree", "model a multiplexer-tree crossbar", func(c *orion.Config) *bool { return &c.Sim.MuxTreeCrossbar }),
	enum("arbiter", "arbiter model: matrix, roundrobin (rr), queuing", func(c *orion.Config) textValue { return &c.Sim.Arbiter }),

	text("config", "load the configuration from a JSON file: the shape, router, link, traffic and measurement flags are ignored; -workers, -profile, -invariants and the fault flags still apply",
		func(c *orion.Config, path string) error {
			data, err := os.ReadFile(path)
			if err == nil {
				*c, err = orion.LoadConfigJSON(data)
			}
			return err
		}),

	field("workers", "parallel tick workers per run (0 = ORION_WORKERS env, else all cores for a single run on a large network and 1 on a small one, 1 per sweep point; capped at half the node count; results are identical at any count)",
		func(c *orion.Config) *int { return &c.Sim.Workers }),
	field("point-timeout", "per-point wall-clock deadline (0 = none), e.g. 30s", func(c *orion.Config) *time.Duration { return &c.Sim.PointTimeout }),
	field("profile", "sample power every N cycles and print the power-vs-time trace", func(c *orion.Config) *int64 { return &c.Sim.ProfileWindowCycles }),
	always(enum("invariants", "runtime invariant checker: auto, on, off (overrides a -config file)",
		func(c *orion.Config) textValue { return &c.CheckInvariants })),

	faultFlag("faults", "inject faults: comma-separated kind:node:port[:start[:duration[:rate]]] (kinds: link-stall, link-drop, port-stall, bit-flip)",
		func(f *faultFlags) *string { return &f.spec }),
	faultFlag("fault-links", "inject N random link faults (kind KIND, or -fault-kind where the command has it)", func(f *faultFlags) *int { return &f.links }),
	faultFlag("fault-kind", "random link fault kind: link-stall, link-drop, bit-flip", func(f *faultFlags) *string { return &f.kind }),
	faultFlag("fault-seed", "fault schedule seed (drives link picks and bit-flip draws)", func(f *faultFlags) *int64 { return &f.seed }),
	faultFlag("fault-start", "first faulty cycle", func(f *faultFlags) *int64 { return &f.start }),
	faultFlag("fault-duration", "fault window in cycles (0 = permanent)", func(f *faultFlags) *int64 { return &f.duration }),
	faultFlag("fault-rate", "per-flit corruption probability of bit-flip faults", func(f *faultFlags) *float64 { return &f.rate }),
}
