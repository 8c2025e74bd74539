package queue

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// File is one worker's handle on a shared queue journal. Appends go
// through a single O_APPEND file descriptor — one write() per record, so
// records from concurrent workers interleave at line granularity, never
// within a line — and every append is fsynced before the protocol step
// it represents is considered taken. The file is the only shared state:
// File keeps the state replayed so far and the byte offset it reaches,
// and each Load replays only the complete lines appended since.
//
// Load, TryClaim and Commit advance that state, and the State they
// return is it, updated in place by the next of them: they must not run
// concurrently with one another. Append, Beat, Drop and Reset only write
// and are safe from any goroutine.
//
// A File made by Memory has no file: every record takes effect on its
// State at once, and nothing is encoded, written or synced. All of its
// methods must then run on one goroutine.
type File struct {
	path string
	// f is the append descriptor; nil for an in-memory queue.
	f   *os.File
	hdr Header
	// off is the byte offset up to which rp has consumed the journal.
	off int64
	rp  replayer
}

// Create initialises a queue journal at path. With fresh set, any
// existing file is truncated and a new header written — the caller is
// starting the sweep over. Without fresh, an existing file is joined
// (its header must match hdr) and a missing one is created; this is the
// create-or-resume mode a coordinator uses.
func Create(path string, hdr Header, fresh bool) (*File, error) {
	hdr.Version = Version
	if !fresh {
		if _, err := os.Stat(path); err == nil {
			return Open(path, hdr)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: stat %s: %v", ErrQueue, path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: creating %s: %v", ErrQueue, path, err)
	}
	qf := &File{path: path, f: f, hdr: hdr}
	line, err := json.Marshal(hdr)
	if err != nil {
		err = fmt.Errorf("%w: encoding header: %v", ErrQueue, err)
	} else if err = qf.append(line); err == nil {
		// Seed the state through the same replay every Load runs.
		_, err = qf.Load()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return qf, nil
}

// Memory returns a queue that lives in this process only: the same
// claim, beat, commit and drop protocol over a State no other process
// can see, for a sweep that keeps no journal.
func Memory(hdr Header) *File {
	hdr.Version = Version
	return &File{hdr: hdr, rp: replayer{st: &State{Header: hdr, Points: make([]Point, len(hdr.Rates))}}}
}

// Open joins an existing queue journal, validating that its header names
// the same sweep as want: a version or structural problem fails with
// ErrQueue, a config-digest or rate-list mismatch with ErrStale.
func Open(path string, want Header) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: opening %s: %v", ErrQueue, path, err)
	}
	qf := &File{path: path, f: f}
	st, err := qf.Load()
	switch {
	case err != nil:
	case want.ConfigDigest != "" && st.Header.ConfigDigest != want.ConfigDigest:
		err = fmt.Errorf("%w: %s was written for a different configuration (digest %s, want %s)",
			ErrStale, path, st.Header.ConfigDigest, want.ConfigDigest)
	case want.Rates != nil && !EqualRates(st.Header.Rates, want.Rates):
		err = fmt.Errorf("%w: %s was written for a different rate list", ErrStale, path)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	qf.hdr = st.Header
	return qf, nil
}

// Close releases the append descriptor. The journal itself persists.
func (q *File) Close() error {
	if q.f == nil {
		return nil
	}
	return q.f.Close()
}

// Path returns the journal path; "" for an in-memory queue.
func (q *File) Path() string { return q.path }

// Header returns the journal's validated header.
func (q *File) Header() Header { return q.hdr }

// append writes one line (single write syscall) and fsyncs it — the
// write-ahead property every protocol step depends on.
func (q *File) append(line []byte) error {
	line = append(line, '\n')
	if _, err := q.f.Write(line); err != nil {
		return fmt.Errorf("%w: appending to %s: %v", ErrQueue, q.path, err)
	}
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("%w: syncing %s: %v", ErrQueue, q.path, err)
	}
	return nil
}

// Append encodes and durably appends one record. An in-memory queue
// applies it instead; its done records need no payload.
func (q *File) Append(rec Record) error {
	if q.f == nil {
		if rec.Index < 0 || rec.Index >= len(q.hdr.Rates) {
			return fmt.Errorf("%w: record index %d outside the %d-point sweep", ErrQueue, rec.Index, len(q.hdr.Rates))
		}
		q.rp.st.apply(rec)
		return nil
	}
	if err := rec.validate(len(q.hdr.Rates)); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: encoding record: %v", ErrQueue, err)
	}
	return q.append(line)
}

// Load replays the lines appended since the last Load and returns the
// state. Safe while other workers append: a torn tail (some other worker
// mid-append) is simply not visible yet.
func (q *File) Load() (*State, error) {
	if q.f == nil {
		return q.rp.st, nil
	}
	fi, err := q.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrQueue, q.path, err)
	}
	if fi.Size() > q.off {
		buf := make([]byte, fi.Size()-q.off)
		n, err := q.f.ReadAt(buf, q.off)
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: reading %s: %v", ErrQueue, q.path, err)
		}
		used, err := q.rp.feed(buf[:n])
		q.off += int64(used)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
	}
	if q.rp.st == nil {
		return nil, fmt.Errorf("%s: %w", q.path, errNoHeader)
	}
	return q.rp.st, nil
}

// nowMs is the protocol clock, swappable by tests to compress leases.
var nowMs = func() int64 { return time.Now().UnixMilli() }

// TryClaim appends a claim for idx and arbitrates by re-reading: it
// returns the post-claim state and whether this worker is now the
// holder. Losing is not an error — another worker's record landed first.
// A claim swallowed by a crashed writer's torn line leaves the point
// unheld; as in Commit, that is detected by the re-read and the claim
// re-appended at once on a fresh line.
func (q *File) TryClaim(idx int, worker string, lease time.Duration) (won bool, st *State, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		rec := Record{Kind: KindClaim, Index: idx, Worker: worker, At: nowMs(), LeaseMs: lease.Milliseconds()}
		if err := q.Append(rec); err != nil {
			return false, nil, err
		}
		st, err = q.Load()
		if err != nil {
			return false, nil, err
		}
		if st.Points[idx].Status != Pending {
			break
		}
	}
	return st.HolderOf(idx) == worker, st, nil
}

// Beat renews the lease on idx. Fire-and-forget: if the claim was
// stolen, the beat is a dead line and the eventual Commit reports
// ErrLeaseLost.
func (q *File) Beat(idx int, worker string, lease time.Duration) error {
	return q.Append(Record{Kind: KindBeat, Index: idx, Worker: worker, At: nowMs(), LeaseMs: lease.Milliseconds()})
}

// Drop gracefully releases a held claim, returning the point to pending
// immediately (no lease-expiry wait for the other workers).
func (q *File) Drop(idx int, worker string) error {
	return q.Append(Record{Kind: KindDrop, Index: idx, Worker: worker, At: nowMs()})
}

// Commit settles idx with the worker's result payload. It fails with
// ErrLeaseLost — and appends nothing — when the worker no longer holds
// the claim (it paused past its lease and was stolen from); and it
// verifies after appending that its done record took effect, catching
// the race where a steal lands between the check and the append. Either
// way a lease-lost result is discarded and the thief re-runs the point:
// no double-commit. An append swallowed by a crashed writer's torn line
// (the record's bytes concatenated onto dead bytes, so no reader sees
// it) is detected by the same verification and retried while the worker
// still holds the claim.
func (q *File) Commit(idx int, worker string, payload json.RawMessage, final bool) error {
	st, err := q.Load()
	if err != nil {
		return err
	}
	if st.HolderOf(idx) != worker {
		return fmt.Errorf("%w: point %d now held by %q, not %q", ErrLeaseLost, idx, st.Points[idx].Holder, worker)
	}
	for attempt := 0; attempt < 3; attempt++ {
		if err := q.Append(Record{Kind: KindDone, Index: idx, Worker: worker, At: nowMs(), Payload: payload, Final: final}); err != nil {
			return err
		}
		st, err = q.Load()
		if err != nil {
			return err
		}
		p := st.Points[idx]
		if p.Status == Done {
			if p.Holder != worker {
				return fmt.Errorf("%w: point %d stolen during commit", ErrLeaseLost, idx)
			}
			return nil
		}
		if st.HolderOf(idx) != worker {
			return fmt.Errorf("%w: point %d stolen during commit", ErrLeaseLost, idx)
		}
		// Still the holder but the done record is not visible: the append
		// was swallowed by a torn line. Retry on a fresh line.
	}
	return fmt.Errorf("%w: commit for point %d did not take effect after retries", ErrQueue, idx)
}

// Reset re-opens a non-final (transient-failure) done point, the resume
// path's re-run request. Resetting a final or unsettled point is a
// dead line, mirroring the replay rule.
func (q *File) Reset(idx int) error {
	return q.Append(Record{Kind: KindReset, Index: idx, At: nowMs()})
}

// NewWorkerID returns a worker identity unique across hosts and
// processes: hostname, PID and random bits (two workers in one process,
// or PID reuse after a crash, must not collide).
func NewWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	var r [4]byte
	rand.Read(r[:])
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(r[:]))
}
