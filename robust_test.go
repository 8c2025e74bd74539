package orion

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// faultyConfig is fastConfig with a representative mixed fault schedule:
// a transient link drop, a transient link stall and a permanent bit-flip.
func faultyConfig(rate float64) Config {
	cfg := fastConfig(rate)
	cfg.Faults = &FaultsConfig{
		Seed: 3,
		Faults: []Fault{
			{Kind: FaultLinkDrop, Node: 0, Port: 0, Start: 400, Duration: 600},
			{Kind: FaultLinkStall, Node: 5, Port: 2, Start: 300, Duration: 200},
			{Kind: FaultBitFlip, Node: 10, Port: 1, Rate: 0.05},
		},
	}
	return cfg
}

// TestRunErrSaturated drives far beyond capacity with a tight cycle budget
// and asserts the typed saturation failure.
func TestRunErrSaturated(t *testing.T) {
	cfg := fastConfig(0.95)
	cfg.Sim.SamplePackets = 5000
	cfg.Sim.MaxCycles = 3000
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("over-driven run succeeded")
	}
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("errors.Is(err, ErrSaturated) = false: %v", err)
	}
	if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrFaulted) {
		t.Errorf("saturation misclassified: %v", err)
	}
}

// TestRunErrDeadlockFaultInduced stalls every link permanently: nothing is
// ever delivered, the progress guard fires, and — because the stalls are
// injected faults — the error also wraps ErrFaulted.
func TestRunErrDeadlockFaultInduced(t *testing.T) {
	cfg := fastConfig(0.05)
	faults, err := RandomLinkFaults(cfg, 1, 64, FaultLinkStall, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultsConfig{Seed: 1, Faults: faults}
	cfg.Sim.ProgressWindowCycles = 2000
	cfg.CheckInvariants = InvariantOff // conservation is irrelevant mid-starvation
	_, err = Run(cfg)
	if err == nil {
		t.Fatal("fully stalled network delivered packets")
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("errors.Is(err, ErrDeadlock) = false: %v", err)
	}
	if !errors.Is(err, ErrFaulted) {
		t.Errorf("fault-induced starvation does not wrap ErrFaulted: %v", err)
	}
}

// TestRunContextCancelled asserts an already-cancelled context aborts the
// run with a wrapped context.Canceled.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, fastConfig(0.05))
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
}

// TestRunContextDeadline asserts a tiny deadline aborts the run with
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	cfg := fastConfig(0.05)
	cfg.Sim.SamplePackets = 5000
	_, err := RunContext(ctx, cfg)
	if err == nil {
		t.Fatal("deadline-expired run succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false: %v", err)
	}
}

// TestInvariantErrorExposure asserts ErrInvariant failures carry the
// structured *InvariantError through the public API surface.
func TestInvariantErrorExposure(t *testing.T) {
	// Build a violation through the public alias to pin the type identity.
	var err error = &InvariantError{
		Invariant: "buffer-occupancy", Cycle: 10, Node: 2, Port: 1, VC: 0,
		Component: "input buffer", Detail: "occupancy 9 exceeds depth 8",
	}
	if !errors.Is(err, ErrInvariant) {
		t.Error("InvariantError does not wrap ErrInvariant")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) || ie.Node != 2 {
		t.Error("errors.As failed to recover the diagnostic")
	}
	if !strings.Contains(err.Error(), "node 2 port 1") {
		t.Errorf("diagnostic does not localise: %v", err)
	}
}

// TestFaultScheduleReproducible runs the same faulted configuration twice
// and requires bit-identical results — the fault streams must be as
// deterministic as the rest of the simulator.
func TestFaultScheduleReproducible(t *testing.T) {
	cfg := faultyConfig(0.08)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprint(a), fingerprint(b)
	if fa != fb {
		t.Errorf("faulted runs with the same schedule differ:\n  first:  %+v\n  second: %+v", fa, fb)
	}
	if a.Faults != b.Faults || a.DroppedFlits != b.DroppedFlits {
		t.Errorf("fault stats differ: %+v vs %+v", a.Faults, b.Faults)
	}
	if a.Faults.DroppedPackets == 0 || a.Faults.FlippedFlits == 0 || a.Faults.StalledLinkCycles == 0 {
		t.Errorf("schedule had no observable effect: %+v", a.Faults)
	}
	if a.DroppedFlits != a.Faults.DroppedFlits {
		t.Errorf("Result.DroppedFlits %d != Faults.DroppedFlits %d", a.DroppedFlits, a.Faults.DroppedFlits)
	}
}

// TestFaultedFastPathMatchesReference extends the golden fast-vs-reference
// equivalence to a faulted run with the invariant checker forced on: fault
// hooks and checker bookkeeping must not perturb either event path.
func TestFaultedFastPathMatchesReference(t *testing.T) {
	cfg := faultyConfig(0.08)
	cfg.CheckInvariants = InvariantOn
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.Sim.ReferenceEventPath = true
	slow, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if ff, fs := fingerprint(fast), fingerprint(slow); ff != fs {
		t.Errorf("faulted fast path diverges from reference:\n  fast:      %+v\n  reference: %+v", ff, fs)
	}
	if fast.Faults != slow.Faults {
		t.Errorf("fault stats diverge: %+v vs %+v", fast.Faults, slow.Faults)
	}
}

// TestInvariantCheckerNeutral asserts enabling the checker does not change
// results — it only observes.
func TestInvariantCheckerNeutral(t *testing.T) {
	on := faultyConfig(0.08)
	on.CheckInvariants = InvariantOn
	off := faultyConfig(0.08)
	off.CheckInvariants = InvariantOff
	a, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Errorf("invariant checker changed results:\n  on:  %+v\n  off: %+v", fa, fb)
	}
}

// TestSweepPartialResults sweeps a rate set spanning zero load to deep
// saturation: one point fails (the zero-rate point ejects nothing, so the
// progress guard trips) while the others — including the saturating one —
// must keep their results, with the failure surfaced as a typed per-point
// error inside a single *SweepError.
func TestSweepPartialResults(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.SamplePackets = 1000
	cfg.Sim.MaxCycles = 20000
	cfg.Sim.ProgressWindowCycles = 1000
	rates := []float64{0, 0.05, 0.95}
	results, err := Sweep(cfg, rates)
	if err == nil {
		t.Fatal("sweep with a starved point returned no error")
	}
	var serr *SweepError
	if !errors.As(err, &serr) {
		t.Fatalf("sweep error is not a *SweepError: %v", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("SweepError does not unwrap to ErrDeadlock: %v", err)
	}
	if results[1] == nil || results[2] == nil {
		t.Error("healthy points lost their results")
	}
	if results[0] != nil {
		t.Error("starved point returned a result")
	}
	if len(serr.Rates) != 1 || serr.Rates[0] != 0 {
		t.Errorf("failing rates = %v, want [0]", serr.Rates)
	}
	if len(serr.Errs) != 1 || !errors.Is(serr.Errs[0], ErrDeadlock) {
		t.Errorf("per-point error not typed: %v", serr.Errs)
	}
}

// TestSweepPointTimeout bounds each point's wall-clock time at something
// unmeetable and asserts per-point DeadlineExceeded errors with the curve
// machinery intact.
func TestSweepPointTimeout(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.SamplePackets = 5000
	cfg.Sim.PointTimeout = time.Nanosecond
	results, err := Sweep(cfg, []float64{0.05, 0.08})
	if err == nil {
		t.Fatal("nanosecond-deadline sweep succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("sweep error does not unwrap DeadlineExceeded: %v", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("point %d returned a result despite the deadline", i)
		}
	}
}

// TestSweepContextCancel cancels the whole sweep up front: every point
// fails with context.Canceled and no goroutine is left behind (the -race
// CI job doubles as the leak check).
func TestSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := SweepContext(ctx, fastConfig(0), []float64{0.02, 0.05, 0.08})
	if err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep error: %v", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("point %d ran despite cancellation", i)
		}
	}
}

// TestValidateAggregates asserts Config.Validate reports multiple problems
// at once with field-qualified messages.
func TestValidateAggregates(t *testing.T) {
	cfg := fastConfig(0.05)
	cfg.Width = -3
	cfg.Traffic.Rate = 7
	cfg.Sim.MaxCycles = -1
	cfg.Faults = &FaultsConfig{Faults: []Fault{{Kind: FaultBitFlip, Node: 0, Port: 0, Rate: 5}}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("broken config validated")
	}
	for _, want := range []string{"Width/Height", "Traffic.Rate", "Sim.MaxCycles", "Faults.Faults[0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q: %v", want, err)
		}
	}
	// Deep (resolved) validation still applies when the shallow pass is
	// clean: a fault on a node outside the topology is caught.
	cfg2 := fastConfig(0.05)
	cfg2.Faults = &FaultsConfig{Faults: []Fault{{Kind: FaultLinkStall, Node: 99, Port: 0}}}
	if err := cfg2.Validate(); err == nil || !strings.Contains(err.Error(), "node 99") {
		t.Errorf("out-of-range fault node not caught: %v", err)
	}
	if err := fastConfig(0.05).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestEntryPointsValidate checks that every public entry point taking a
// Config rejects an invalid one with Validate's own field-qualified
// message: each resolves through the same field pass, so none can
// silently run or report on a default in place of a bad field.
func TestEntryPointsValidate(t *testing.T) {
	ctx := context.Background()
	entries := []struct {
		name string
		call func(Config) error
	}{
		{"Run", func(c Config) error { _, err := Run(c); return err }},
		{"RunContext", func(c Config) error { _, err := RunContext(ctx, c); return err }},
		{"RunTrace", func(c Config) error { _, err := RunTrace(c, strings.NewReader("0 0 1\n")); return err }},
		{"NewSim", func(c Config) error { _, err := NewSim(c); return err }},
		{"ZeroLoadLatency", func(c Config) error { _, err := ZeroLoadLatency(c); return err }},
		{"SaturationThroughput", func(c Config) error {
			_, _, _, err := SaturationThroughput(c, []float64{0.05})
			return err
		}},
		{"ComponentEnergies", func(c Config) error { _, err := ComponentEnergies(c); return err }},
		{"RandomLinkFaults", func(c Config) error {
			_, err := RandomLinkFaults(c, 1, 2, FaultLinkStall, 0, 0, 0)
			return err
		}},
		{"VerifyEventPath", func(c Config) error { return VerifyEventPath(ctx, c, 100, 200) }},
		{"Resume", func(c Config) error { _, err := Resume(ctx, c, &Snapshot{}); return err }},
		{"SweepJournaledContext", func(c Config) error {
			path := filepath.Join(t.TempDir(), "sweep.jsonl")
			_, err := SweepJournaledContext(ctx, c, []float64{0.05}, SweepJournalOptions{Path: path})
			return err
		}},
	}
	invalid := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Tech.Vdd=-1", func(c *Config) { c.Tech.Vdd = -1 }},
		{"Router.VCs=-1", func(c *Config) { c.Router.VCs = -1 }},
	}
	for _, inv := range invalid {
		cfg := fastConfig(0.05)
		inv.mutate(&cfg)
		verr := cfg.Validate()
		if verr == nil {
			t.Fatalf("%s: Validate accepted the config", inv.name)
		}
		want := verr.Error()
		for _, e := range entries {
			err := e.call(cfg)
			if err == nil || err.Error() != want {
				t.Errorf("%s: %s returned %v, want Validate's %q", inv.name, e.name, err, want)
			}
		}
	}
}

// TestValidateBoundsBufferState checks the buffer-state bound: a config
// whose buffers would take more than 1<<26 64-bit words is rejected by
// Validate and LoadConfigJSON (never built here — a build would allocate
// it), including products that overflow int64, while every preset passes
// on the paper's 4×4 torus and on a 32×32 mesh.
func TestValidateBoundsBufferState(t *testing.T) {
	// 4×4 torus, 5 ports, one 64-bit word per flit: 80 words per
	// buffer slot, so depth 838,860 is the last under the bound.
	atBound := fastConfig(0.05)
	atBound.Router = RouterConfig{Kind: Wormhole, BufferDepth: (1 << 26) / 80, FlitBits: 64}
	if err := atBound.Validate(); err != nil {
		t.Errorf("buffers just under the bound rejected: %v", err)
	}
	over := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one slot over", func(c *Config) {
			c.Router = RouterConfig{Kind: Wormhole, BufferDepth: (1<<26)/80 + 1, FlitBits: 64}
		}},
		{"billion-flit buffers", func(c *Config) { c.Router.BufferDepth = 1_000_000_000 }},
		{"huge flits", func(c *Config) { c.Router.FlitBits = 1 << 40 }},
		{"huge central buffer", func(c *Config) {
			c.Router = CB()
			c.Router.CentralBuffer.Rows = 1 << 30
		}},
		{"product wraps int64 to zero", func(c *Config) {
			c.Router.VCs, c.Router.BufferDepth = 1<<32, 1<<32
		}},
		{"max ints", func(c *Config) {
			c.Router.VCs, c.Router.BufferDepth, c.Router.FlitBits = math.MaxInt, math.MaxInt, math.MaxInt
		}},
	}
	for _, tc := range over {
		cfg := fastConfig(0.05)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "orion: Router: buffers of") {
			t.Errorf("%s: Validate = %v, want the buffer bound", tc.name, err)
		}
		data, jerr := ConfigJSON(cfg)
		if jerr != nil {
			t.Fatal(jerr)
		}
		if _, err := LoadConfigJSON(data); err == nil || !strings.Contains(err.Error(), "orion: Router: buffers of") {
			t.Errorf("%s: LoadConfigJSON = %v, want the buffer bound", tc.name, err)
		}
	}
	for _, p := range []struct {
		name string
		r    RouterConfig
	}{{"WH64", WH64()}, {"VC16", VC16()}, {"VC64", VC64()}, {"VC128", VC128()}, {"XB", XB()}, {"CB", CB()}, {"VC8", VC8()}} {
		for _, cfg := range []Config{OnChip4x4(p.r, 0.05), OnChipMesh(32, 32, p.r, 0.05)} {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s on %d×%d: %v", p.name, cfg.Width, cfg.Height, err)
			}
		}
	}
}

// TestValidateBoundsRouterPorts checks the router port bound: a crossbar
// router's output arbiters take ports-1 requesters and a central buffer's
// arbiters take ports, each a one-word request vector, so concentrated
// meshes of 65 and 64 ports build while one more terminal per cluster is
// rejected by Validate with the field named, and by NewSim with the same
// message rather than the power model's.
func TestValidateBoundsRouterPorts(t *testing.T) {
	small := func(r RouterConfig) RouterConfig {
		r.BufferDepth, r.FlitBits = 4, 64
		r.CentralBuffer.Rows = 16
		return r
	}
	for _, tc := range []struct {
		name     string
		r        RouterConfig
		maxPorts int
	}{{"WH64", small(WH64()), 65}, {"VC16", small(VC16()), 65}, {"CB", small(CB()), 64}} {
		cfg := OnChipMesh(1, 1, tc.r, 0.01)
		cfg.Concentration = tc.maxPorts - 4
		if _, err := NewSim(cfg); err != nil {
			t.Errorf("%s with %d ports: %v", tc.name, tc.maxPorts, err)
		}
		cfg.Concentration++
		verr := cfg.Validate()
		if verr == nil || !strings.Contains(verr.Error(), "orion: Concentration: ") {
			t.Errorf("%s with %d ports: Validate = %v, want the port bound", tc.name, tc.maxPorts+1, verr)
			continue
		}
		if _, err := NewSim(cfg); err == nil || err.Error() != verr.Error() {
			t.Errorf("%s with %d ports: NewSim = %v, want Validate's %q", tc.name, tc.maxPorts+1, err, verr)
		}
	}
	// A 2×2 mesh of 70 terminals per cluster (74 ports) once passed
	// Validate and failed only in NewSim.
	cfg := OnChipMesh(2, 2, VC16(), 0.01)
	cfg.Concentration = 70
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted 74-port routers")
	}
}

// TestParseFaultSpec exercises the CLI fault grammar.
func TestParseFaultSpec(t *testing.T) {
	fs, err := ParseFaultSpec("link-stall:3:1, bit-flip:0:2:1000:500:0.01,link-drop:5:0:200")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultLinkStall, Node: 3, Port: 1},
		{Kind: FaultBitFlip, Node: 0, Port: 2, Start: 1000, Duration: 500, Rate: 0.01},
		{Kind: FaultLinkDrop, Node: 5, Port: 0, Start: 200},
	}
	if len(fs) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(fs), len(want))
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, fs[i], want[i])
		}
	}
	for _, bad := range []string{"link-stall", "quantum:0:0", "link-stall:x:0", "bit-flip:0:0:0:0:nope", "link-stall:0:0:0:0:0:0"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
	if fs, err := ParseFaultSpec(""); err != nil || len(fs) != 0 {
		t.Errorf("empty spec: %v, %v", fs, err)
	}
}

// TestRandomLinkFaultsDeterministic pins the public random-link helper.
func TestRandomLinkFaultsDeterministic(t *testing.T) {
	cfg := fastConfig(0.05)
	a, err := RandomLinkFaults(cfg, 7, 5, FaultLinkDrop, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomLinkFaults(cfg, 7, 5, FaultLinkDrop, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed picked different links: %+v vs %+v", a, b)
		}
	}
	seen := map[[2]int]bool{}
	for _, f := range a {
		if f.Node < 0 || f.Node >= 16 || f.Port < 0 || f.Port >= 4 {
			t.Errorf("fault outside the 4×4 torus link set: %+v", f)
		}
		seen[[2]int{f.Node, f.Port}] = true
	}
	if len(seen) != 5 {
		t.Errorf("expected 5 distinct links, got %d", len(seen))
	}
}

// TestDroppedSampleAccounting checks the latency sample shrinks by exactly
// the dropped sample packets and the run still terminates.
func TestDroppedSampleAccounting(t *testing.T) {
	cfg := fastConfig(0.08)
	cfg.Faults = &FaultsConfig{Seed: 2, Faults: []Fault{
		{Kind: FaultLinkDrop, Node: 0, Port: 0, Start: 0}, // permanent drop
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedSamplePackets == 0 {
		t.Fatal("permanent link drop lost no sample packets")
	}
	if res.SamplePackets+res.DroppedSamplePackets != 300 {
		t.Errorf("delivered %d + dropped %d sample packets, want 300 total",
			res.SamplePackets, res.DroppedSamplePackets)
	}
}

// TestInvariantModeResolution pins the auto/env resolution rules.
func TestInvariantModeResolution(t *testing.T) {
	if !InvariantOn.enabled() || InvariantOff.enabled() {
		t.Error("explicit modes wrong")
	}
	// Under `go test`, auto means on.
	if !InvariantAuto.enabled() {
		t.Error("auto should enable under go test")
	}
	t.Setenv("ORION_INVARIANTS", "off")
	if InvariantAuto.enabled() {
		t.Error("ORION_INVARIANTS=off should win over auto")
	}
	if !InvariantOn.enabled() {
		t.Error("explicit On must ignore the environment")
	}
	t.Setenv("ORION_INVARIANTS", "1")
	if !InvariantAuto.enabled() {
		t.Error("ORION_INVARIANTS=1 should enable")
	}
}
