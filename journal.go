package orion

import (
	"context"
	"errors"
	"fmt"
)

// The sweep journal is the work queue of internal/queue: a header line
// (format version, config digest, rate list) and then claim, beat, done,
// drop and reset records. A done record's payload is a journalPoint.

// journalPoint is one completed sweep point. Exactly one of Result and
// Err is set. ErrKind is the machine classification resume decides with;
// Faulted records whether the error additionally wrapped ErrFaulted.
// encoding/json round-trips float64 exactly (shortest-representation
// marshalling), so a result read back from the journal is bit-identical
// to the one that was run.
type journalPoint struct {
	Index   int     `json:"index"`
	Rate    float64 `json:"rate"`
	Result  *Result `json:"result,omitempty"`
	Err     string  `json:"err,omitempty"`
	ErrKind string  `json:"err_kind,omitempty"`
	Faulted bool    `json:"faulted,omitempty"`
}

// Error-kind labels journaled with failed points.
const (
	errKindSaturated = "saturated"
	errKindDeadlock  = "deadlock"
	errKindInvariant = "invariant"
	errKindTimeout   = "timeout"
	errKindCancelled = "cancelled"
	errKindFailed    = "failed"
	// errKindBackendDown: a remote-dispatch point found every backend
	// open-circuit with local fallback disabled. Transient by nature —
	// a resume with healthy backends (or fallback enabled) re-runs it.
	errKindBackendDown = "backend_down"
)

// errKindOf classifies an error for the journal. Order matters:
// ErrInvariant first (an invariant failure may also look saturated), the
// context kinds after the simulator's own sentinels.
func errKindOf(err error) string {
	switch {
	case errors.Is(err, ErrInvariant):
		return errKindInvariant
	case errors.Is(err, ErrSaturated):
		return errKindSaturated
	case errors.Is(err, ErrDeadlock):
		return errKindDeadlock
	case errors.Is(err, ErrBackendDown):
		return errKindBackendDown
	case errors.Is(err, context.DeadlineExceeded):
		return errKindTimeout
	case errors.Is(err, context.Canceled):
		return errKindCancelled
	default:
		return errKindFailed
	}
}

// deterministicKind reports whether a journaled failure would reproduce
// exactly on a re-run. Deterministic failures are final — resume keeps
// them; transient ones (timeouts, cancellation, panics) are re-run.
func deterministicKind(kind string) bool {
	switch kind {
	case errKindSaturated, errKindDeadlock, errKindInvariant:
		return true
	}
	return false
}

// journaledErr reconstructs a typed error from a journaled deterministic
// failure, preserving errors.Is behaviour across the crash boundary.
func journaledErr(p journalPoint) error {
	var base error
	switch p.ErrKind {
	case errKindSaturated:
		base = ErrSaturated
	case errKindDeadlock:
		base = ErrDeadlock
	case errKindInvariant:
		base = ErrInvariant
	default:
		return fmt.Errorf("orion: journaled failure at rate %g: %s", p.Rate, p.Err)
	}
	if p.Faulted {
		return fmt.Errorf("journaled: %w: %w: %s", base, ErrFaulted, p.Err)
	}
	return fmt.Errorf("journaled: %w: %s", base, p.Err)
}

// SweepJournalOptions configures SweepJournaledContext.
type SweepJournalOptions struct {
	// Path is the journal file (the work-queue format, JSON lines).
	// Empty disables journaling, making SweepJournaledContext equivalent
	// to SweepContext.
	Path string
	// Resume merges an existing journal at Path instead of starting over:
	// points it records as succeeded — or as failed deterministically
	// (saturated, deadlock, invariant) — are not re-run; transient
	// failures (timeout, cancellation, panic) and never-attempted points
	// run as usual, and points claimed by a killed process run once
	// their leases expire. The journal must match this sweep (format
	// version, config digest, rate list) or the resume fails with an
	// error wrapping ErrJournal. A missing journal is a fresh start.
	Resume bool
}

// SweepJournaledContext is SweepContext with a crash-safe write-ahead
// journal: every claim and every completed point is appended to
// opts.Path and fsynced, so a killed process loses at most the points in
// flight. Restarting with opts.Resume picks up where the journal left
// off and merges the journaled results into the returned slice. It is
// SweepDistributed with runtime.NumCPU() points in flight; cancelling
// ctx aborts the in-flight points and releases their claims, but never
// loses already-journaled results.
func SweepJournaledContext(ctx context.Context, cfg Config, rates []float64, opts SweepJournalOptions) ([]*Result, error) {
	if opts.Path == "" {
		return SweepContext(ctx, cfg, rates)
	}
	return SweepDistributed(ctx, cfg, rates, DistributedSweepOptions{Path: opts.Path, Resume: opts.Resume})
}
