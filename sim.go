package orion

import (
	"context"
	"crypto/sha256"
	"fmt"

	"orion/internal/core"
	"orion/internal/snap"
)

// Snapshot is a versioned, checksummed record of a simulation's full
// cross-cycle state at a cycle boundary: engine cycle, per-router buffer
// and VC occupancy, in-flight flits, RNG streams, power accumulators,
// fault-schedule progress. See DESIGN.md for the format.
type Snapshot = snap.Snapshot

// Sim is an incrementally driveable simulation: the same measurement
// protocol as Run, but advanceable in segments, snapshottable, and
// resumable. A Sim is single-goroutine; it is not safe for concurrent
// use.
type Sim struct {
	cfg    Config
	net    *core.Network
	digest []byte
}

// NewSim builds a simulation from the configuration without running it.
func NewSim(cfg Config) (*Sim, error) {
	n, err := build(cfg, nil)
	if err != nil {
		return nil, err
	}
	d, err := ConfigDigest(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, net: n, digest: d}, nil
}

// ConfigDigest returns the SHA-256 of the configuration's canonical JSON
// — the identity snapshots and sweep journals are bound to, so a snapshot
// can never be resumed under a different configuration unnoticed.
// Execution details that cannot change a deterministic result are left
// out: Sim.Workers and Sim.AlwaysTick are not in the canonical JSON, and
// Sim.PointTimeout and Sim.PointRetries are zeroed before hashing.
func ConfigDigest(cfg Config) ([]byte, error) {
	cfg.Sim.PointTimeout, cfg.Sim.PointRetries = 0, 0
	data, err := ConfigJSON(cfg)
	if err != nil {
		return nil, fmt.Errorf("orion: digesting config: %w", err)
	}
	sum := sha256.Sum256(data)
	return sum[:], nil
}

// Cycle returns the current engine cycle.
func (s *Sim) Cycle() int64 { return s.net.Cycle() }

// Workers returns the resolved tick worker count (1 means one worker:
// shard 0 on the caller). See SimConfig.Workers for the resolution
// policy.
func (s *Sim) Workers() int { return s.net.Workers() }

// StepTo advances the simulation to the given cycle boundary, crossing
// the warm-up/measurement transition exactly as an uninterrupted run
// would. done reports whether the measurement completed at or before the
// boundary; call RunContext afterwards to finish the run and collect the
// Result.
func (s *Sim) StepTo(ctx context.Context, cycle int64) (done bool, err error) {
	return s.net.StepTo(ctx, cycle)
}

// Run completes the simulation and returns its result.
func (s *Sim) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext completes the simulation (continuing from wherever StepTo
// left it) and returns its result.
func (s *Sim) RunContext(ctx context.Context) (*Result, error) {
	res, err := s.net.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return fromCore(res, s.cfg.Traffic.Rate), nil
}

// Snapshot captures the simulation's state at the current cycle boundary.
func (s *Sim) Snapshot() (*Snapshot, error) {
	snapshot, err := s.net.CaptureState(s.digest)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return snapshot, nil
}

// SaveSnapshot captures the state and writes it atomically to path (temp
// file in the same directory, fsync, rename).
func (s *Sim) SaveSnapshot(path string) error {
	snapshot, err := s.Snapshot()
	if err != nil {
		return err
	}
	return snap.WriteFile(path, snapshot)
}

// SetSnapshotFile arranges for the simulation to write a snapshot to path
// every `every` cycles while it runs, each write atomic so a kill
// mid-write leaves the previous snapshot intact. every <= 0 disables
// periodic snapshotting (the default), in which case the run's hot path
// is unchanged — the disabled check is one integer compare per cycle and
// allocates nothing.
func (s *Sim) SetSnapshotFile(path string, every int64) {
	if path == "" || every <= 0 {
		s.net.SetSnapshotHook(0, nil)
		return
	}
	digest := s.digest
	s.net.SetSnapshotHook(every, func(n *core.Network) error {
		snapshot, err := n.CaptureState(digest)
		if err != nil {
			return err
		}
		return snap.WriteFile(path, snapshot)
	})
}

// StateHash returns the FNV-1a fingerprint of the simulation's captured
// state at the current cycle boundary. Two deterministic runs of the same
// configuration agree on StateHash at every cycle; a restored run
// round-trips the hash of the snapshot it was restored from.
func (s *Sim) StateHash() (uint64, error) {
	h, err := s.net.StateHash()
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return h, nil
}

// LoadSnapshot decodes and validates snapshot bytes. Damaged input fails
// with an error wrapping ErrSnapshot and ErrSnapshotCorrupt; version skew
// wraps ErrSnapshot and ErrSnapshotVersion. It never panics.
func LoadSnapshot(data []byte) (*Snapshot, error) {
	s, err := snap.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return s, nil
}

// LoadSnapshotFile reads and validates a snapshot file.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	s, err := snap.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return s, nil
}

// Resume rebuilds a simulation from its configuration and a snapshot,
// returning a Sim positioned at the snapshot's cycle with state verified
// bit-identical to the snapshot.
//
// Restore is by verified deterministic replay: the network is rebuilt
// from the configuration and advanced to the snapshot cycle (the
// simulator's determinism contract makes this reproduce the original
// trajectory exactly), then the recaptured state is compared against the
// snapshot section by section. A mismatch — a changed configuration that
// slipped past the digest, or genuine non-determinism — fails with a
// *DivergenceError wrapping ErrDiverged naming the first differing
// section. A snapshot whose config digest does not match cfg fails
// immediately with an error wrapping ErrSnapshot.
func Resume(ctx context.Context, cfg Config, snapshot *Snapshot) (*Sim, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	if string(snapshot.ConfigDigest) != string(s.digest) {
		return nil, fmt.Errorf("%w: snapshot was taken under a different configuration (digest %x, want %x)",
			ErrSnapshot, snapshot.ConfigDigest, s.digest)
	}
	if _, err := s.StepTo(ctx, snapshot.Cycle); err != nil {
		return nil, err
	}
	if got := s.Cycle(); got != snapshot.Cycle {
		return nil, &DivergenceError{Cycle: got,
			Section: fmt.Sprintf("run ended at cycle %d before reaching snapshot cycle %d", got, snapshot.Cycle)}
	}
	replayed, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	if d := snap.Diff(snapshot, replayed); d != "" {
		return nil, &DivergenceError{Cycle: snapshot.Cycle, Section: d}
	}
	return s, nil
}

// ResumeFile is Resume reading the snapshot from a file.
func ResumeFile(ctx context.Context, cfg Config, path string) (*Sim, error) {
	snapshot, err := LoadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return Resume(ctx, cfg, snapshot)
}

// VerifyEventPath is the simulator's divergence self-check: it runs
// lockstep builds of the configuration — the frozen fast event path and
// the map-based reference path, plus a one-worker oracle (shard 0 on the
// caller) whenever the primary build resolved to more than one tick
// worker, plus an
// always-tick oracle whenever the primary build uses the active-set
// scheduler — comparing StateHash every `every` cycles until all
// complete or `maxCycles` is reached. The builds are required to be observably identical; a
// differing hash fails with a *DivergenceError naming the first differing
// state section.
func VerifyEventPath(ctx context.Context, cfg Config, every, maxCycles int64) error {
	if every <= 0 {
		return fmt.Errorf("orion: VerifyEventPath needs a positive comparison interval, got %d", every)
	}
	fast, err := NewSim(cfg)
	if err != nil {
		return err
	}
	// Each oracle is a build, differing from the primary one in one
	// SimConfig setting, that must stay identical to it. prefix and pair
	// name it in DivergenceError.Section for a state difference and a
	// completion difference.
	type oracle struct {
		sim          *Sim
		prefix, pair string
	}
	var oracles []oracle
	add := func(mod func(*SimConfig), prefix, pair string) error {
		ocfg := cfg
		mod(&ocfg.Sim)
		o, err := NewSim(ocfg)
		if err == nil {
			oracles = append(oracles, oracle{o, prefix, pair})
		}
		return err
	}
	if err := add(func(s *SimConfig) { s.ReferenceEventPath = true },
		"fast vs reference event path: ", "fast vs reference"); err != nil {
		return err
	}
	// When the primary build runs on several workers, a build pinned to
	// one worker (shard 0 on the caller) checks the worker-count
	// bit-identity claim end to end, not just in the unit tests.
	if fast.Workers() > 1 {
		if err := add(func(s *SimConfig) { s.Workers = 1 },
			fmt.Sprintf("%d workers vs one worker: ", fast.Workers()), "workers vs one worker"); err != nil {
			return err
		}
	}
	// An always-tick build checks the active-set scheduler's bit-identity
	// claim the same way, unless the caller already opted out of gating.
	if !cfg.Sim.AlwaysTick {
		if err := add(func(s *SimConfig) { s.AlwaysTick = true },
			"activity-gated vs always-tick scheduler: ", "gated vs always-tick"); err != nil {
			return err
		}
	}
	for cycle := every; maxCycles <= 0 || cycle <= maxCycles; cycle += every {
		fastDone, err := fast.StepTo(ctx, cycle)
		if err != nil {
			return err
		}
		a, err := fast.net.CaptureState(nil)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
		for _, o := range oracles {
			done, err := o.sim.StepTo(ctx, cycle)
			if err != nil {
				return err
			}
			b, err := o.sim.net.CaptureState(nil)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSnapshot, err)
			}
			if d := snap.Diff(a, b); d != "" {
				return &DivergenceError{Cycle: fast.Cycle(), Section: o.prefix + d}
			}
			if done != fastDone {
				return &DivergenceError{Cycle: fast.Cycle(), Section: "completion status (" + o.pair + ")"}
			}
		}
		if fastDone {
			return nil
		}
	}
	return nil
}
