package orion

import (
	"errors"
	"fmt"

	"orion/internal/core"
)

// Validate checks the configuration without running it, aggregating every
// detectable problem into one error (errors.Join) with field-qualified
// messages, so a hand-written or JSON-loaded configuration reports all its
// mistakes at once instead of one per run attempt. Run, RunContext, Sweep,
// SweepContext and LoadConfigJSON all call it, so explicit calls are only
// needed to fail early (e.g. validating user input before a long sweep).
func (cfg Config) Validate() error {
	var errs []error
	check := func(ok bool, field, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("orion: %s: %s", field, fmt.Sprintf(format, args...)))
		}
	}

	check(cfg.Width > 0 && cfg.Height > 0, "Width/Height",
		"network dimensions must be positive, got %d×%d", cfg.Width, cfg.Height)
	// Bound the node count before resolve allocates per-node state — a
	// fuzzed "Width": 50000, "Height": 50000 must be rejected here, not
	// after an 8-billion-element allocation.
	const maxNodes = 1 << 20
	check(cfg.Width <= maxNodes && cfg.Height <= maxNodes && cfg.Depth <= maxNodes &&
		cfg.Concentration <= maxNodes &&
		int64(cfg.Width)*int64(cfg.Height)*int64(max(cfg.Depth, 1))*int64(max(cfg.Concentration, 1)) <= maxNodes,
		"Width/Height/Depth", "topology of %d×%d×%d nodes exceeds the %d-node limit",
		cfg.Width, cfg.Height, max(cfg.Depth, 1)*max(cfg.Concentration, 1), maxNodes)
	check(!(cfg.Depth > 1 && cfg.Mesh), "Depth",
		"3-D networks are torus only")
	check(cfg.Concentration >= 0, "Concentration",
		"must not be negative, got %d", cfg.Concentration)
	check(cfg.Concentration <= 1 || cfg.Mesh, "Concentration",
		"requires Mesh (concentrated torus is not supported)")
	check(cfg.Router.VCs >= 0, "Router.VCs", "must not be negative, got %d", cfg.Router.VCs)
	check(cfg.Router.BufferDepth >= 0, "Router.BufferDepth",
		"must not be negative, got %d", cfg.Router.BufferDepth)
	check(cfg.Router.FlitBits >= 0, "Router.FlitBits",
		"must not be negative, got %d", cfg.Router.FlitBits)
	check(cfg.Link.LengthMm >= 0, "Link.LengthMm",
		"must not be negative, got %g", cfg.Link.LengthMm)
	check(cfg.Link.ConstantWatts >= 0, "Link.ConstantWatts",
		"must not be negative, got %g", cfg.Link.ConstantWatts)
	check(cfg.Tech.FeatureUm >= 0, "Tech.FeatureUm",
		"must not be negative, got %g", cfg.Tech.FeatureUm)
	check(cfg.Tech.Vdd >= 0, "Tech.Vdd", "must not be negative, got %g", cfg.Tech.Vdd)
	check(cfg.Tech.FreqGHz >= 0, "Tech.FreqGHz",
		"must not be negative, got %g", cfg.Tech.FreqGHz)
	check(cfg.Traffic.Rate >= 0 && cfg.Traffic.Rate <= 1, "Traffic.Rate",
		"injection rate %g outside [0,1]", cfg.Traffic.Rate)
	check(cfg.Traffic.PacketLength >= 0, "Traffic.PacketLength",
		"must not be negative, got %d", cfg.Traffic.PacketLength)
	check(cfg.Sim.WarmupCycles >= 0, "Sim.WarmupCycles",
		"must not be negative, got %d", cfg.Sim.WarmupCycles)
	check(cfg.Sim.SamplePackets >= 0, "Sim.SamplePackets",
		"must not be negative, got %d", cfg.Sim.SamplePackets)
	check(cfg.Sim.MaxCycles >= 0, "Sim.MaxCycles",
		"must not be negative, got %d", cfg.Sim.MaxCycles)
	check(cfg.Sim.ProgressWindowCycles >= 0, "Sim.ProgressWindowCycles",
		"must not be negative, got %d", cfg.Sim.ProgressWindowCycles)
	check(cfg.Sim.PointTimeout >= 0, "Sim.PointTimeout",
		"must not be negative, got %v", cfg.Sim.PointTimeout)
	check(cfg.Sim.PointRetries >= 0, "Sim.PointRetries",
		"must not be negative, got %d", cfg.Sim.PointRetries)
	check(cfg.Sim.Workers >= 0, "Sim.Workers",
		"must not be negative, got %d", cfg.Sim.Workers)
	check(cfg.CheckInvariants >= InvariantAuto && cfg.CheckInvariants <= InvariantOff,
		"CheckInvariants", "unknown invariant mode %d", int(cfg.CheckInvariants))

	if cfg.Faults != nil {
		for i, f := range cfg.Faults.Faults {
			field := fmt.Sprintf("Faults.Faults[%d]", i)
			check(f.Kind >= FaultLinkStall && f.Kind <= FaultBitFlip, field,
				"unknown fault kind %d", int(f.Kind))
			check(f.Start >= 0, field, "start cycle must not be negative, got %d", f.Start)
			if f.Kind == FaultBitFlip {
				check(f.Rate > 0 && f.Rate <= 1, field,
					"bit-flip rate %g outside (0,1]", f.Rate)
			} else {
				check(f.Rate == 0, field,
					"rate %g is only meaningful for bit-flip faults", f.Rate)
			}
		}
	}

	if len(errs) > 0 {
		// The shallow errors already cover anything resolve would reject;
		// resolving on top would only duplicate diagnostics.
		return errors.Join(errs...)
	}

	// Deep cross-field validation: resolve to the internal configuration
	// and check it exactly as Build will see it (defaults applied), so
	// topology/router/fault inconsistencies surface before any run.
	ccfg, err := resolve(cfg)
	if err != nil {
		return err
	}
	return core.ValidateConfig(ccfg)
}
