package orion

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"orion/internal/queue"
)

// journalVersion is the sweep-journal format version. Bump it when a line
// schema change makes old journals unreadable; resume rejects mismatches
// with ErrJournal.
const journalVersion = 1

// A journal's first line is a queue.Header: the format version, the
// SHA-256 of the configuration (with the injection rate normalised to
// zero, since the sweep overrides it per point) and the exact rate list,
// so indices in later lines are unambiguous. The distributed work queue
// uses the same header, told apart by the version number alone.

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

// journalState is what readJournal recovers from an existing file.
type journalState struct {
	hasHeader bool
	header    queue.Header
	points    []journalPoint
	// offset is the byte offset just past the last intact line; appending
	// resumes there, discarding a line truncated by a crash mid-write.
	offset int64
}

// readJournal parses an existing journal. A missing file or an empty file
// is a fresh start, not an error. A final line cut off mid-write (no
// terminating newline, or unparsable without one) is tolerated and
// dropped — that is the expected crash signature. Anything else malformed
// — a corrupt interior line, a newline-terminated garbage tail, a first
// line that is not a header — fails with an error wrapping ErrJournal:
// the file is not a journal this sweep can safely extend.
func readJournal(path string) (*journalState, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &journalState{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrJournal, path, err)
	}
	st := &journalState{}
	var off int64
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// Unterminated tail: the crash interrupted a write. Drop it.
			return st, nil
		}
		line := data[:nl]
		data = data[nl+1:]
		if !st.hasHeader {
			var h queue.Header
			if err := json.Unmarshal(line, &h); err != nil || h.Version == 0 {
				return nil, fmt.Errorf("%w: %s does not start with a journal header", ErrJournal, path)
			}
			st.header, st.hasHeader = h, true
		} else {
			var p journalPoint
			if err := json.Unmarshal(line, &p); err != nil {
				if len(data) == 0 {
					// Newline-terminated but unparsable final line: the
					// crash landed between the payload write and its
					// completion. Treat like an unterminated tail.
					return st, nil
				}
				return nil, fmt.Errorf("%w: corrupt line at byte %d of %s", ErrJournal, off, path)
			}
			st.points = append(st.points, p)
		}
		off += int64(nl + 1)
		st.offset = off
	}
	return st, nil
}

// journalWriter serialises appends from the sweep's worker pool and
// fsyncs each line, so every point the sweep reports complete is durably
// on disk before the next is attempted — the write-ahead property resume
// depends on.
type journalWriter struct {
	mu sync.Mutex
	f  *os.File
}

func (w *journalWriter) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("orion: encoding journal line: %w", err)
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("orion: writing journal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("orion: syncing journal: %w", err)
	}
	return nil
}

// SweepJournalOptions configures SweepJournaled.
type SweepJournalOptions struct {
	// Path is the journal file (JSON lines). Empty disables journaling,
	// making SweepJournaled equivalent to Sweep.
	Path string
	// Resume merges an existing journal at Path instead of starting over:
	// points it records as succeeded — or as failed deterministically
	// (saturated, deadlock, invariant) — are not re-run; transient
	// failures (timeout, cancellation, panic) and never-attempted points
	// run as usual. The journal must match this sweep (format version,
	// config digest, rate list) or the resume fails with an error
	// wrapping ErrJournal.
	Resume bool
}

// SweepJournaled is Sweep with a crash-safe write-ahead journal: every
// completed point is appended to opts.Path and fsynced before the sweep
// moves on, so a killed process loses at most the points in flight.
// Restarting with opts.Resume picks up where the journal left off and
// merges the journaled results into the returned slice.
func SweepJournaled(cfg Config, rates []float64, opts SweepJournalOptions) ([]*Result, error) {
	return SweepJournaledContext(context.Background(), cfg, rates, opts)
}

// SweepJournaledContext is SweepJournaled with cancellation. Cancelling
// ctx aborts in-flight points (journaled as cancelled, so a later resume
// re-runs them) but never loses already-journaled results.
func SweepJournaledContext(ctx context.Context, cfg Config, rates []float64, opts SweepJournalOptions) ([]*Result, error) {
	if opts.Path == "" {
		return SweepContext(ctx, cfg, rates)
	}

	// The digest is taken with the rate normalised to zero: the sweep
	// overrides the rate per point, so two sweeps of the same config at
	// different rate lists share a digest and differ in the header's
	// explicit rate list instead.
	hexDigest, err := sweepConfigDigest(cfg)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(rates))
	errs := make([]error, len(rates))
	settled := make([]bool, len(rates))

	resumed := false
	var resumeOffset int64
	if opts.Resume {
		st, err := readJournal(opts.Path)
		if err != nil {
			return nil, err
		}
		if st.hasHeader {
			if st.header.Version == queue.Version {
				return nil, fmt.Errorf("%w: %s is a distributed work-queue journal; resume it with -distributed or -worker",
					ErrJournal, opts.Path)
			}
			if st.header.Version != journalVersion {
				return nil, fmt.Errorf("%w: %s has format version %d, this build writes %d",
					ErrJournal, opts.Path, st.header.Version, journalVersion)
			}
			if st.header.ConfigDigest != hexDigest {
				return nil, fmt.Errorf("%w: %w: %s was written for a different configuration (digest %s, want %s)",
					ErrJournal, ErrStaleJournal, opts.Path, st.header.ConfigDigest, hexDigest)
			}
			if !queue.EqualRates(st.header.Rates, rates) {
				return nil, fmt.Errorf("%w: %w: %s was written for a different rate list",
					ErrJournal, ErrStaleJournal, opts.Path)
			}
			for _, p := range st.points {
				if p.Index < 0 || p.Index >= len(rates) {
					return nil, fmt.Errorf("%w: %s records point index %d outside the %d-rate sweep",
						ErrJournal, opts.Path, p.Index, len(rates))
				}
				switch {
				case p.Result != nil:
					results[p.Index], errs[p.Index], settled[p.Index] = p.Result, nil, true
				case deterministicKind(p.ErrKind):
					results[p.Index], errs[p.Index], settled[p.Index] = nil, journaledErr(p), true
				default:
					// Transient: forget it and re-run.
					results[p.Index], errs[p.Index], settled[p.Index] = nil, nil, false
				}
			}
			resumed, resumeOffset = true, st.offset
		}
	}

	var f *os.File
	if resumed {
		f, err = os.OpenFile(opts.Path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("orion: opening journal: %w", err)
		}
		// Cut off any half-written tail so appends start on a line
		// boundary.
		if err := f.Truncate(resumeOffset); err != nil {
			f.Close()
			return nil, fmt.Errorf("orion: truncating journal tail: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("orion: seeking journal: %w", err)
		}
	} else {
		f, err = os.Create(opts.Path)
		if err != nil {
			return nil, fmt.Errorf("orion: creating journal: %w", err)
		}
	}
	defer f.Close()
	jw := &journalWriter{f: f}
	if !resumed {
		if err := jw.writeLine(queue.Header{Version: journalVersion, ConfigDigest: hexDigest, Rates: rates}); err != nil {
			return nil, err
		}
	}

	var pending []int
	for i := range rates {
		if !settled[i] {
			pending = append(pending, i)
		}
	}

	var (
		jerrMu sync.Mutex
		jerr   error
	)
	runPool(len(pending), runtime.NumCPU(), func(k int) {
		i := pending[k]
		results[i], errs[i] = runPoint(ctx, cfg, rates[i])
		p := journalPoint{Index: i, Rate: rates[i]}
		if errs[i] == nil {
			p.Result = results[i]
		} else {
			p.Err = errs[i].Error()
			p.ErrKind = errKindOf(errs[i])
			p.Faulted = errors.Is(errs[i], ErrFaulted)
		}
		if werr := jw.writeLine(p); werr != nil {
			jerrMu.Lock()
			if jerr == nil {
				jerr = werr
			}
			jerrMu.Unlock()
		}
	})

	serr := collectSweepError(rates, errs)
	switch {
	case jerr != nil && serr != nil:
		return results, errors.Join(jerr, serr)
	case jerr != nil:
		return results, jerr
	case serr != nil:
		return results, serr
	}
	return results, nil
}
