package orion

import "context"

// The sweep journal is the work queue of internal/queue: a header line
// (format version, config digest, rate list) and then claim, beat, done,
// drop and reset records. A done record's payload is a journalPoint.

// journalPoint is one completed sweep point. Exactly one of Result and
// Err is set. ErrKind is the failure's internal/outcome code, which the
// merge rebuilds the typed error from; Faulted records whether the error
// additionally wrapped ErrFaulted.
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
