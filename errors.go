package orion

import (
	"errors"
	"fmt"

	"orion/internal/core"
	"orion/internal/fault"
	"orion/internal/outcome"
	"orion/internal/queue"
	"orion/internal/snap"
)

// Sentinel errors classifying run failures. Every error returned by Run,
// RunContext, RunTrace, Sweep and SweepContext that stems from one of
// these conditions wraps the matching sentinel, so callers branch with
// errors.Is instead of matching message strings:
//
//	res, err := orion.Run(cfg)
//	switch {
//	case errors.Is(err, orion.ErrSaturated):
//		// offered load beyond capacity — back off the rate
//	case errors.Is(err, orion.ErrDeadlock):
//		// no delivery progress — deadlock or total starvation
//	case errors.Is(err, orion.ErrInvariant):
//		// simulator self-check failed; errors.As(*InvariantError)
//	}
//
// A failure caused by injected faults (e.g. a permanent link stall
// starving the sample) additionally wraps ErrFaulted, so
// errors.Is(err, ErrFaulted) distinguishes fault-induced saturation from
// organic saturation.
var (
	// ErrSaturated marks a run that hit MaxCycles before delivering its
	// sample packets.
	ErrSaturated = core.ErrSaturated
	// ErrDeadlock marks a run with no flit delivered for a full progress
	// window while sample packets were outstanding.
	ErrDeadlock = core.ErrDeadlock
	// ErrInvariant marks a run aborted by the runtime invariant checker.
	ErrInvariant = core.ErrInvariant
	// ErrFaulted marks failures attributable to an active fault schedule.
	ErrFaulted = fault.ErrFaulted
)

// ErrOverloaded marks a request shed by admission control: the serving
// layer's bounded queue was full, so the request was rejected immediately
// instead of queueing unboundedly. The condition is transient by
// definition — callers should back off and retry (the HTTP surface maps
// it to 429 with a Retry-After header).
var ErrOverloaded = outcome.ErrOverloaded

// Sentinels for the remote-dispatch layer (internal/remote). A sweep
// running with HTTP backends classifies its failures with these so
// callers can tell a network-layer problem from a simulation outcome.
var (
	// ErrRemote marks a failure of the remote dispatch itself: a
	// transport error, a truncated or undecodable response, or a retry
	// budget exhausted against misbehaving backends. The simulation's own
	// outcome is unknown — a re-run (or the local fallback) may succeed.
	ErrRemote = outcome.ErrRemote
	// ErrBackendDown marks a point that found every configured backend
	// unavailable: each circuit breaker open after consecutive failures,
	// with no probe due. With local fallback enabled the point runs
	// locally instead; with fallback disabled the point fails with an
	// error wrapping both ErrRemote and ErrBackendDown, and the worker's
	// stats count it.
	ErrBackendDown = outcome.ErrBackendDown
)

// Sentinels for the checkpoint/resume and journaling layer.
var (
	// ErrSnapshot marks a snapshot that was rejected: damaged bytes, an
	// incompatible format version, or a configuration digest that does
	// not match the resuming configuration. The more specific
	// ErrSnapshotCorrupt / ErrSnapshotVersion are wrapped alongside when
	// they apply.
	ErrSnapshot = errors.New("orion: snapshot rejected")
	// ErrSnapshotCorrupt marks a snapshot whose envelope or payload is
	// damaged (bad magic, truncation, checksum mismatch).
	ErrSnapshotCorrupt = snap.ErrCorrupt
	// ErrSnapshotVersion marks a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = snap.ErrVersion
	// ErrDiverged marks a deterministic replay that failed to reproduce
	// the snapshotted state — the simulator self-check for
	// non-determinism. errors.As recovers the *DivergenceError naming the
	// first differing state section.
	ErrDiverged = errors.New("orion: deterministic replay diverged")
	// ErrJournal marks a sweep journal that was rejected: a corrupt
	// record in its interior, a format version this build does not read,
	// or a header whose configuration digest does not match the resuming
	// sweep.
	ErrJournal = errors.New("orion: journal rejected")
)

// Sentinels for the distributed work-queue layer (internal/queue). Both
// are raised wrapped alongside ErrJournal where a journal file is being
// rejected, so existing errors.Is(err, ErrJournal) call sites keep
// working.
var (
	// ErrStaleJournal marks a structurally valid sweep journal or queue
	// file that belongs to a different sweep: its configuration digest or
	// rate list does not match the joining worker or resuming
	// coordinator.
	ErrStaleJournal = queue.ErrStale
	// ErrLeaseLost marks a worker's commit attempt after its claim was
	// stolen — the worker was paused or stalled past its lease, another
	// worker took the point over, and this result must be discarded so
	// exactly one committed result per point ever takes effect.
	ErrLeaseLost = queue.ErrLeaseLost
)

// DivergenceError is the structured diagnostic behind ErrDiverged: the
// cycle at which states were compared and the first differing section
// ("routers", "energy", "traffic", ...).
type DivergenceError struct {
	// Cycle is the comparison cycle.
	Cycle int64
	// Section describes the first differing state section.
	Section string
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("orion: state divergence at cycle %d: first difference in %s", e.Cycle, e.Section)
}

// Unwrap ties the diagnostic to ErrDiverged for errors.Is.
func (e *DivergenceError) Unwrap() error { return ErrDiverged }

// InvariantError is the structured diagnostic behind ErrInvariant: the
// violated invariant, the cycle, and the node/port/VC/component involved.
// Recover it with errors.As:
//
//	var ie *orion.InvariantError
//	if errors.As(err, &ie) {
//		log.Printf("invariant %s at cycle %d node %d", ie.Invariant, ie.Cycle, ie.Node)
//	}
type InvariantError = core.InvariantError

// SweepError aggregates the failures of a Sweep or SweepContext: Index
// lists the failing points' positions in the rate list (in sweep order),
// Rates their injection rates and Errs the corresponding errors. It
// unwraps to every underlying error, so errors.Is(err, ErrSaturated)
// reports whether any point saturated.
type SweepError struct {
	// Index are the positions in the swept rate list of the points that
	// failed, so a failure is matched to its point even when rates repeat.
	Index []int
	// Rates are the injection rates whose runs failed, parallel to Index.
	Rates []float64
	// Errs are the per-point errors, parallel to Rates.
	Errs []error
}

// Error implements error.
func (e *SweepError) Error() string {
	if len(e.Errs) == 1 {
		return fmt.Sprintf("orion: sweep: rate %g failed: %v", e.Rates[0], e.Errs[0])
	}
	return fmt.Sprintf("orion: sweep: %d of the swept rates failed, first at rate %g: %v",
		len(e.Errs), e.Rates[0], e.Errs[0])
}

// Unwrap exposes every per-point error to errors.Is/errors.As.
func (e *SweepError) Unwrap() []error { return e.Errs }
