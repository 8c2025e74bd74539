package orion

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"orion/internal/queue"
)

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

// SweepJournalOptions configures SweepJournaledContext. The zero value
// is a plain in-memory sweep with runtime.NumCPU() points in flight.
type SweepJournalOptions struct {
	// Path is the journal file (the work-queue format, JSON lines),
	// shared by every process working on the sweep. Empty runs the sweep
	// in memory: the same claim loop over a queue no other process sees,
	// with nothing encoded or written.
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
	// InFlight is how many points this process runs at once; 0 means
	// runtime.NumCPU(). A negative InFlight runs none: the process
	// creates (or resumes) the journal at Path and merges it once other
	// processes (orion-sweep -worker) have settled every point — the
	// coordinator of a distributed sweep.
	InFlight int
	// Lease is how long a claim stays unstealable without a heartbeat;
	// it bounds how long a dead worker's points stay stuck. Default 5s.
	Lease time.Duration
	// Run executes one point. Nil means local execution (RunPoint); a
	// remote dispatch pool (internal/remote) plugs in here so points
	// execute on orion-serve backends while the claim, heartbeat and
	// commit machinery stays unchanged.
	Run PointRunner
	// Progress, when non-nil, receives the settled-point count as the
	// sweep advances (see SweepProgress).
	Progress SweepProgress
	// Worker, when non-nil, makes this process one worker of a shared
	// journal: it joins the existing journal at Path (a missing one is an
	// error, and Resume re-opens nothing), runs points until every point
	// is settled or ctx is cancelled, fills *Worker with its claim
	// statistics and returns no results.
	Worker *WorkerStats

	// Test hooks. workerID names this process in claim records (default
	// a host-pid-random identity); poll is the idle re-scan interval
	// while other workers hold the remaining points (default Lease/5, at
	// most 100ms for a coordinator).
	// dieAfterClaims, when positive, makes the loop abandon the run after
	// claiming its N-th point — no drop, no commit — the in-process
	// stand-in for SIGKILL. holdPoint, when set, is called between a
	// winning claim and the point run, the stand-in for a SIGSTOP that
	// outlives the lease.
	workerID       string
	poll           time.Duration
	dieAfterClaims int
	holdPoint      func(idx int)
}

// SweepJournaledContext runs a sweep: the configuration at each rate,
// with results returned in rate order. It is the one sweep entry point;
// Sweep, SweepContext and SweepWithRunner are shorthands for it.
//
// Every sweep runs on one claim loop over a work queue (internal/queue):
// the loop claims points, keeps up to opts.InFlight of them running,
// heartbeats them and commits each result as it lands. With opts.Path
// the queue is a crash-safe write-ahead journal: every claim and every
// completed point is appended and fsynced, so a killed process loses at
// most the points in flight, and restarting with opts.Resume picks up
// where the journal left off. Other processes may work on the same
// journal (opts.Worker); the merged results are byte-identical to an
// in-memory sweep, because point runs are deterministic and exactly one
// committed result per point takes effect.
//
// Rates that fail (e.g. deep saturation hitting MaxCycles) yield a nil
// entry, and the partial results are returned with a *SweepError
// aggregating the typed per-point errors, so one saturating point never
// discards the rest of the curve. Cancelling ctx aborts the in-flight
// points and releases their claims; the partial results are then
// returned with an error wrapping ctx.Err() that counts the settled
// points, and the *SweepError gives every unsettled point an error
// wrapping ctx.Err() too. Already-committed results are never lost.
func SweepJournaledContext(ctx context.Context, cfg Config, rates []float64, opts SweepJournalOptions) ([]*Result, error) {
	qf, err := openSweepQueue(cfg, rates, opts)
	if err != nil {
		return nil, err
	}
	defer qf.Close()
	if opts.workerID == "" {
		opts.workerID = queue.NewWorkerID()
	}
	slots := opts.InFlight
	if slots == 0 {
		slots = runtime.NumCPU()
	}
	own, stats, lerr := claimLoop(ctx, qf, cfg, rates, opts, max(slots, 0))
	if opts.Worker != nil {
		*opts.Worker = stats
		return nil, lerr
	}

	st, err := qf.Load()
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	if st.Complete() {
		return mergeQueueState(st, rates, own, opts.workerID, nil)
	}
	// The loop stopped without finishing the queue: cancellation or a
	// journal failure. Every unsettled point fails with that cause, so
	// no nil result goes without an error.
	cause := ctx.Err()
	if cause == nil {
		cause = lerr
	}
	if cause == nil {
		cause = errors.New("orion: sweep stopped early")
	}
	results, merr := mergeQueueState(st, rates, own, opts.workerID, cause)
	if lerr == ctx.Err() {
		lerr = nil
	}
	return results, fmt.Errorf("orion: sweep incomplete (%d/%d points settled): %w",
		st.DoneCount(), len(rates), errors.Join(ctx.Err(), lerr, merr))
}

// openSweepQueue opens the queue a sweep runs on. Without a path it is
// in memory. A worker joins the existing journal at the path as it
// stands. Otherwise the journal is created, or with opts.Resume rejoined:
// an existing journal's header must match the configuration and rate
// list — a mismatch fails with an error wrapping ErrStaleJournal — and
// every point settled by a transient failure (timeout, panic) is
// re-opened for re-running; a missing file is a fresh start. Without
// resume, any existing file is truncated and the sweep starts over.
func openSweepQueue(cfg Config, rates []float64, opts SweepJournalOptions) (*queue.File, error) {
	if opts.Path == "" {
		if opts.Worker != nil || opts.InFlight < 0 {
			return nil, errors.New("orion: a sweep worker or coordinator requires a journal Path")
		}
		return queue.Memory(queue.Header{Rates: rates}), nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return nil, err
	}
	if opts.Worker != nil {
		qf, err := queue.Open(opts.Path, hdr)
		return qf, wrapQueueErr(err)
	}
	qf, err := queue.Create(opts.Path, hdr, !opts.Resume)
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	if opts.Resume {
		st, err := qf.Load()
		for i := 0; err == nil && i < len(st.Points); i++ {
			if st.Points[i].Status == queue.Done && !st.Points[i].Final {
				err = qf.Reset(i)
			}
		}
		if err != nil {
			qf.Close()
			return nil, wrapQueueErr(err)
		}
	}
	return qf, nil
}
