package orion

import (
	"math"
	"testing"
)

// goldenConfigs are the preset configurations the golden tests exercise:
// the paper's wormhole and virtual-channel on-chip routers plus the
// chip-to-chip central-buffered router, with a sample small enough to run
// in test time but large enough to cover every event class.
func goldenConfigs() map[string]Config {
	trim := func(cfg Config) Config {
		cfg.Traffic.Seed = 7
		cfg.Sim.WarmupCycles = 300
		cfg.Sim.SamplePackets = 500
		return cfg
	}
	dvs := OnChip4x4(VC16(), 0.10)
	dvs.Link.DVS = &DVSPolicy{}
	fixed := OnChip4x4(VC64(), 0.10)
	fixed.Sim.FixedActivity = true
	leak := OnChip4x4(WH64(), 0.10)
	leak.Sim.IncludeLeakage = true
	return map[string]Config{
		"WH64":       trim(OnChip4x4(WH64(), 0.10)),
		"VC64":       trim(OnChip4x4(VC64(), 0.10)),
		"CB":         trim(ChipToChip4x4(CB(), 0.10)),
		"VC16-DVS":   trim(dvs),
		"VC64-fixed": trim(fixed),
		"WH64-leak":  trim(leak),
	}
}

// resultFingerprint captures every result field the golden tests compare
// bit for bit. Floats are compared via math.Float64bits: the invariant is
// exact identity, not tolerance.
type resultFingerprint struct {
	energy   uint64
	avg      uint64
	p50      uint64
	p95      uint64
	p99      uint64
	powerW   uint64
	events   EventCounts
	injected int64
	ejected  int64
	cycles   int64
}

func fingerprint(r *Result) resultFingerprint {
	return resultFingerprint{
		energy:   math.Float64bits(r.EnergyJ),
		avg:      math.Float64bits(r.AvgLatency),
		p50:      math.Float64bits(r.LatencyP50),
		p95:      math.Float64bits(r.LatencyP95),
		p99:      math.Float64bits(r.LatencyP99),
		powerW:   math.Float64bits(r.TotalPowerW),
		events:   r.Events,
		injected: r.InjectedFlits,
		ejected:  r.EjectedFlits,
		cycles:   r.TotalCycles,
	}
}

// TestGoldenDeterminism runs each preset twice with the same seed and
// requires bit-identical energy, event counts and latency percentiles —
// the reproducibility contract every optimisation of the hot path must
// preserve.
func TestGoldenDeterminism(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
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
				t.Errorf("two runs with the same seed differ:\n  first:  %+v\n  second: %+v", fa, fb)
			}
		})
	}
}

// TestGoldenFastPathMatchesReference runs each preset through the frozen
// fast event path and through the map-based reference listener
// (Sim.ReferenceEventPath) and requires bit-identical results: both
// lookups hand each event to the same charging method, so flattening the
// registration maps into dense tables must not change a single joule.
func TestGoldenFastPathMatchesReference(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
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
			ff, fs := fingerprint(fast), fingerprint(slow)
			if ff != fs {
				t.Errorf("fast path diverges from reference listener:\n  fast:      %+v\n  reference: %+v", ff, fs)
			}
			if fast.Breakdown != slow.Breakdown {
				t.Errorf("component breakdown diverges:\n  fast:      %+v\n  reference: %+v", fast.Breakdown, slow.Breakdown)
			}
		})
	}
}
