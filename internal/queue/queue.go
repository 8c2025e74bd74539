// Package queue is the sweep journal: an append-only JSONL work-queue
// protocol over which any number of workers — goroutines of one process
// or processes on a shared filesystem — claim sweep points with leased,
// heartbeat-renewed claim records, steal claims whose leases have
// expired, and commit results, all over a single append-only file.
//
// The protocol is designed so that the authoritative state is a pure
// function of the file's bytes. Every record carries the wall-clock
// instant at which its writer appended it; replaying the records in file
// order — using each record's own timestamp, never the reader's clock —
// yields the same per-point state for every reader. A reader's local
// clock is consulted only to decide whether a lease is expired *now*
// (i.e. whether a steal is worth attempting); the steal itself is just
// another claim record, and its validity is decided by the timestamps in
// the file once it lands.
//
// Concurrency control is append-with-reread arbitration: a worker
// appends its claim (a single O_APPEND write, fsynced), re-reads the
// file, and replays it. If the replay names the worker as the point's
// holder, it won; otherwise another worker's record landed first and the
// claim is a dead line in the log. No byte of the file is ever
// overwritten, so the format tolerates torn tails: a crash mid-append leaves dead bytes that every
// reader deterministically skips, and a live writer whose append was
// concatenated onto a torn line observes — via the same re-read — that
// its record never took effect, and retries on a fresh line.
//
// Replay rules, per point, in file order:
//
//	claim  — valid if the point is pending, or claimed with a lease that
//	         had already expired when the claim was appended (a steal).
//	         Sets the holder and the lease deadline (at + lease).
//	beat   — valid only from the current holder; extends the deadline.
//	         A beat after expiry but before any steal revives the lease:
//	         expiry never evicts a holder, it only authorises steals.
//	done   — valid only from the current holder; settles the point and
//	         records its payload. A done from a superseded worker is a
//	         dead line — the no-double-commit guarantee.
//	drop   — valid only from the current holder; returns the point to
//	         pending (graceful release on cancellation).
//	reset  — valid on a non-final done; returns the point to pending
//	         (a resuming coordinator re-opening transient failures).
package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Version is the work-queue journal format version. Version 1 was a
// retired single-process sweep journal with the same header line; its
// files are rejected with ErrVersion instead of being misread.
const Version = 2

// Typed sentinels. ErrQueue marks a file that is not a queue journal
// this process can safely extend (corrupt interior line, bad header,
// malformed record). ErrStale marks a structurally valid journal that
// belongs to a different sweep (config digest or rate-list mismatch).
// ErrLeaseLost marks a commit attempt by a worker whose claim was stolen
// while it ran — the result must be discarded; the thief re-runs the
// point. ErrVersion, raised alongside ErrQueue, marks a header whose
// format version this build does not read.
var (
	ErrQueue     = errors.New("queue: journal rejected")
	ErrStale     = errors.New("queue: journal belongs to a different sweep")
	ErrLeaseLost = errors.New("queue: lease lost, result discarded")
	ErrVersion   = errors.New("format version")
)

// Header is the queue journal's first line: the format version, the
// sweep's config digest and its rate list.
type Header struct {
	Version      int       `json:"version"`
	ConfigDigest string    `json:"config_digest"`
	Rates        []float64 `json:"rates"`
}

// Record kinds.
const (
	KindClaim = "claim"
	KindBeat  = "beat"
	KindDone  = "done"
	KindDrop  = "drop"
	KindReset = "reset"
)

// Record is one protocol line after the header. At is the writer's
// wall-clock append instant in Unix milliseconds — the timestamp replay
// arbitrates with. LeaseMs is the lease duration granted by a claim or
// beat (deadline = At + LeaseMs). Payload is the committed result of a
// done record, opaque to this package. Final marks a done that resume
// must not re-run (a success or a deterministic failure).
type Record struct {
	Kind    string          `json:"t"`
	Index   int             `json:"index"`
	Worker  string          `json:"w,omitempty"`
	At      int64           `json:"at_ms,omitempty"`
	LeaseMs int64           `json:"lease_ms,omitempty"`
	Payload json.RawMessage `json:"point,omitempty"`
	Final   bool            `json:"final,omitempty"`
}

// validate rejects records that no conforming writer emits. Replay
// depends on every parsed record being well-formed.
func (r *Record) validate(points int) error {
	if r.Index < 0 || r.Index >= points {
		return fmt.Errorf("%w: record index %d outside the %d-point sweep", ErrQueue, r.Index, points)
	}
	switch r.Kind {
	case KindClaim, KindBeat:
		if r.Worker == "" || r.LeaseMs <= 0 || r.At <= 0 {
			return fmt.Errorf("%w: %s record missing worker, lease or timestamp", ErrQueue, r.Kind)
		}
	case KindDone, KindDrop:
		if r.Worker == "" {
			return fmt.Errorf("%w: %s record missing worker", ErrQueue, r.Kind)
		}
		if r.Kind == KindDone && len(r.Payload) == 0 {
			return fmt.Errorf("%w: done record missing payload", ErrQueue)
		}
	case KindReset:
		// No extra fields required.
	default:
		return fmt.Errorf("%w: unknown record kind %q", ErrQueue, r.Kind)
	}
	return nil
}

// PointStatus is the replayed state of one sweep point.
type PointStatus int

const (
	// Pending: never claimed, or returned by a drop/reset.
	Pending PointStatus = iota
	// Claimed: held by Holder until Deadline (or until stolen after it).
	Claimed
	// Done: settled with a committed payload.
	Done
)

// String renders the status for operator-facing output.
func (s PointStatus) String() string {
	switch s {
	case Pending:
		return "pending"
	case Claimed:
		return "claimed"
	case Done:
		return "done"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Point is one point's replayed state.
type Point struct {
	Status PointStatus
	// Holder is the worker holding the claim (Claimed) or the worker
	// that committed the result (Done).
	Holder string
	// Deadline is the lease expiry in Unix milliseconds (Claimed only).
	Deadline int64
	// Final marks a done that a resume keeps (success or deterministic
	// failure); a non-final done is re-run by a resuming coordinator.
	Final bool
	// Payload is the committed result (Done only), opaque JSON.
	Payload json.RawMessage
}

// State is the authoritative queue state: the header plus one replayed
// Point per sweep rate. It is a pure function of the journal bytes.
type State struct {
	Header Header
	Points []Point
}

// Complete reports whether every point has a committed result.
func (s *State) Complete() bool {
	for i := range s.Points {
		if s.Points[i].Status != Done {
			return false
		}
	}
	return true
}

// DoneCount returns the number of settled points.
func (s *State) DoneCount() int {
	n := 0
	for i := range s.Points {
		if s.Points[i].Status == Done {
			n++
		}
	}
	return n
}

// Counts tallies points by status — the one-line summary chaos tests
// and operator tooling assert on (a settled queue is 0 pending,
// 0 claimed, len(Points) done).
func (s *State) Counts() (pending, claimed, done int) {
	for i := range s.Points {
		switch s.Points[i].Status {
		case Pending:
			pending++
		case Claimed:
			claimed++
		case Done:
			done++
		}
	}
	return pending, claimed, done
}

// HolderOf returns the index's current holder, or "" when unheld.
func (s *State) HolderOf(idx int) string {
	if idx < 0 || idx >= len(s.Points) {
		return ""
	}
	p := s.Points[idx]
	if p.Status != Claimed {
		return ""
	}
	return p.Holder
}

// apply folds one record into the state under the rules in the package
// comment. The record was validated at parse time, so its index is in
// range.
func (s *State) apply(r Record) {
	p := &s.Points[r.Index]
	switch r.Kind {
	case KindClaim:
		// A claim takes a pending point unconditionally, and a claimed
		// point only if the lease had already expired when the claim was
		// appended (a steal). Done points are settled for good — claims
		// on them are dead lines.
		if p.Status == Pending || (p.Status == Claimed && r.At > p.Deadline) {
			p.Status = Claimed
			p.Holder = r.Worker
			p.Deadline = r.At + r.LeaseMs
		}
	case KindBeat:
		// Only the holder renews. A beat landing after expiry but before
		// any steal still renews: expiry authorises steals, it does not
		// evict.
		if p.Status == Claimed && p.Holder == r.Worker {
			p.Deadline = r.At + r.LeaseMs
		}
	case KindDone:
		// Only the holder commits; a stale commit from a superseded
		// worker is discarded, so exactly one result per point ever
		// takes effect.
		if p.Status == Claimed && p.Holder == r.Worker {
			p.Status = Done
			p.Deadline = 0
			p.Payload = r.Payload
			p.Final = r.Final
		}
	case KindDrop:
		if p.Status == Claimed && p.Holder == r.Worker {
			*p = Point{Status: Pending}
		}
	case KindReset:
		// Re-open a transient (non-final) failure for a resume.
		if p.Status == Done && !p.Final {
			*p = Point{Status: Pending}
		}
	}
}

// DecodeState parses a whole queue-journal image and replays it — the
// read half of the protocol in one call. It is the same fold File.Load
// runs incrementally, fed the whole image at once.
//
// Unlike a single-writer log, unparsable lines are tolerated anywhere,
// not just at the tail: in a multi-writer append-only log, a crash can
// leave a torn line that the next live writer's append is concatenated
// onto, so dead bytes can end up in the interior. Every reader
// deterministically skips the same dead bytes, and the
// append-then-reread arbitration means a writer whose record was
// swallowed simply observes it never took effect and retries — no state
// is ever derived from a line that does not parse. What does fail, with
// ErrQueue: a missing or wrong-version header (the records cannot be
// interpreted), and a line that parses as a record but violates the
// schema (an index outside the sweep, an unknown kind) — the signature
// of a foreign or buggy writer, not of a crash.
func DecodeState(data []byte) (*State, error) {
	var rp replayer
	if _, err := rp.feed(data); err != nil {
		return nil, err
	}
	if rp.st == nil {
		return nil, errNoHeader
	}
	return rp.st, nil
}

var errNoHeader = fmt.Errorf("%w: empty journal (no header)", ErrQueue)

// replayer folds journal lines into a State incrementally, under
// DecodeState's rules. It consumes a line only once a full re-read would
// treat that line the same way at any later time: a valid record or an
// unparsable dead line. An unterminated tail, a torn first line and a
// schema-invalid final line are left for the next feed, because what
// they mean depends on whether more lines follow them.
type replayer struct {
	// st is the replayed state; nil until the header line is read.
	st *State
	// lines counts the lines decoded, re-decoded tails included.
	lines int
}

// feed replays data — the journal bytes past everything consumed so far
// — and returns how many of its bytes it consumed.
func (rp *replayer) feed(data []byte) (int, error) {
	n := 0
	for {
		nl := bytes.IndexByte(data[n:], '\n')
		if nl < 0 {
			// Unterminated tail: a crash mid-append, or an append not
			// yet fully visible. Re-read once it is terminated.
			return n, nil
		}
		done, err := rp.line(data[n:n+nl], n+nl+1 == len(data))
		if err != nil || !done {
			return n, err
		}
		n += nl + 1
	}
}

// line decodes one newline-terminated line. It reports false, with no
// error, for a final line whose meaning waits on whether more follow.
func (rp *replayer) line(line []byte, last bool) (bool, error) {
	if rp.st == nil {
		if len(line) == 0 {
			return true, nil
		}
		rp.lines++
		var h Header
		if err := json.Unmarshal(line, &h); err != nil || h.Version == 0 {
			if last {
				// Torn first line — nothing usable yet.
				return false, nil
			}
			return false, fmt.Errorf("%w: file does not start with a queue header", ErrQueue)
		}
		if h.Version != Version {
			return false, fmt.Errorf("%w: %w %d, this build speaks %d", ErrQueue, ErrVersion, h.Version, Version)
		}
		rp.st = &State{Header: h, Points: make([]Point, len(h.Rates))}
		return true, nil
	}
	rp.lines++
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		// Dead bytes: a torn line, possibly with a live writer's record
		// concatenated onto it. Deterministically skipped by every
		// reader; the swallowed writer retries.
		return true, nil
	}
	if err := r.validate(len(rp.st.Header.Rates)); err != nil {
		if last {
			// A torn record can truncate into valid JSON with missing
			// fields; at the tail that is the crash signature.
			return false, nil
		}
		return false, err
	}
	rp.st.apply(r)
	return true, nil
}

// EqualRates compares rate lists exactly; JSON round-trips float64
// bit-exactly, so equality is the right test.
func EqualRates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
