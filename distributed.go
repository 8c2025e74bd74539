package orion

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"orion/internal/backoff"
	"orion/internal/outcome"
	"orion/internal/queue"
)

// Sweep execution: every sweep is one claim loop per process over a
// work queue (internal/queue), in memory or on a journal file. Any
// number of processes on a shared filesystem claim points from one
// journal with leased, heartbeat-renewed claim records; expired leases
// are stolen, so points held by crashed workers are re-run; and the
// merged result is byte-identical to an in-memory sweep of the same
// configuration, because point runs are deterministic and exactly one
// committed result per point ever takes effect.

// SweepConfigDigest is the digest that binds sweep journals and
// work-queue files to one configuration: the hex ConfigDigest with the
// injection rate normalised to zero. The sweep overrides the rate per
// point, so sweeps of the same config at different rate lists share a
// digest and differ in the header's explicit rate list instead. The
// serving layer keys its sweep result cache with it so a served sweep
// and an on-disk journal of the same configuration share an identity.
func SweepConfigDigest(cfg Config) (string, error) {
	cfg.Traffic.Rate = 0
	digest, err := ConfigDigest(cfg)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(digest), nil
}

// sweepQueueHeader builds the queue-journal header identifying this
// sweep.
func sweepQueueHeader(cfg Config, rates []float64) (queue.Header, error) {
	d, err := SweepConfigDigest(cfg)
	if err != nil {
		return queue.Header{}, err
	}
	return queue.Header{Version: queue.Version, ConfigDigest: d, Rates: rates}, nil
}

// wrapQueueErr ties internal/queue's sentinels into the package's error
// taxonomy: every queue-file rejection also satisfies ErrJournal (the
// journal-layer sentinel callers already branch on), while ErrLeaseLost
// passes through untouched. A file in another format version — in
// practice the retired version-1 single-process journal — says how to
// go on.
func wrapQueueErr(err error) error {
	switch {
	case err == nil || errors.Is(err, ErrJournal) || errors.Is(err, ErrLeaseLost):
		return err
	case errors.Is(err, queue.ErrVersion):
		return fmt.Errorf("%w: %w (version-1 sweep journals are no longer read; re-run the sweep without -resume to start it over)",
			ErrJournal, err)
	}
	return fmt.Errorf("%w: %w", ErrJournal, err)
}

// WorkerStats summarises one process's participation in a sweep queue
// (SweepJournalOptions.Worker).
type WorkerStats struct {
	// Claims counts won claims; Steals counts the subset that took over
	// an expired lease.
	Claims, Steals int
	// Commits counts results committed; LeasesLost counts results
	// discarded because the claim was stolen while the point ran (the
	// point is re-run by the thief — no double-commit).
	Commits, LeasesLost int
	// BackendDown counts point runs that failed because every remote
	// backend was circuit-broken with local fallback disabled
	// (errors wrapping ErrBackendDown). Always zero for local runners.
	BackendDown int
}

// errWorkerCrashed marks a worker abandoned by the dieAfterClaims chaos
// hook, so tests can tell a simulated SIGKILL from a real failure.
var errWorkerCrashed = errors.New("orion: worker crashed (chaos hook)")

// finishedPoint is one claimed point's run, reported by the goroutine
// that ran it to its claim loop.
type finishedPoint struct {
	idx int
	// res and err are the live run's outcome; res is nil when err is set.
	res *Result
	err error
	// payload is the encoded journalPoint for the done record: nil in
	// memory, and nil with encErr set when the result did not encode.
	payload []byte
	encErr  error
	final   bool
}

// runClaimed runs one claimed point and, for a journal, encodes its
// payload.
func runClaimed(ctx context.Context, run PointRunner, cfg Config, rates []float64, idx int, encode bool) *finishedPoint {
	res, err := run(ctx, cfg, rates[idx])
	p := journalPoint{Index: idx, Rate: rates[idx], Result: res}
	if err != nil {
		p.Result, p.Err = nil, err.Error()
		p.ErrKind, p.Faulted = outcome.Code(err)
	}
	fp := &finishedPoint{idx: idx, res: p.Result, err: err, final: err == nil || outcome.Final(p.ErrKind)}
	if encode {
		var merr error
		if fp.payload, merr = json.Marshal(p); merr != nil {
			fp.payload, fp.encErr = nil, fmt.Errorf("orion: encoding queue result: %w", merr)
		}
	}
	return fp
}

// claimLoop is one process on an open sweep queue: a single loop that
// claims points, keeps up to slots of them running at once, heartbeats
// them and commits each result as it lands, until every point is
// settled (nil) or ctx is cancelled (ctx's error). With no slots it only
// watches the queue until other processes settle it. The loop alone
// reads and claims, so the points of one process never race each other
// for a claim, and an idle loop wakes as soon as one of its own points
// finishes. Claims, beats and commits stay per point: exactly one commit
// per point takes effect whoever runs it. Points cut short by
// cancellation or a journal failure have their claims dropped, so other
// workers take them without waiting out the lease. It returns, by
// index, the points whose own commit took effect, with their live
// results and errors.
func claimLoop(ctx context.Context, qf *queue.File, cfg Config, rates []float64, opts SweepJournalOptions, slots int) ([]*finishedPoint, WorkerStats, error) {
	var stats WorkerStats
	own := make([]*finishedPoint, len(rates))
	id := opts.workerID
	run := opts.Run
	if run == nil {
		run = RunPoint
	}
	lease := opts.Lease
	if lease <= 0 {
		lease = 5 * time.Second
	}
	// A short poll lets a waiting loop follow other processes' commits
	// closely; Load reads only what was appended, so polling is cheap.
	poll := opts.poll
	if poll <= 0 {
		poll = min(lease/5, 100*time.Millisecond)
	}
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	// A journal's workers start their claim scans at different offsets so
	// a fresh fleet fans out over the rate list instead of racing index
	// 0. In memory the loop claims in index order.
	journal := qf.Path() != ""
	start := 0
	if journal {
		start = int(workerHash(id) % uint64(max(len(rates), 1)))
	}
	// The first look at the queue is always reported, so a caller learns
	// when the queue is open; later ones only when the count grows.
	reported := -1

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	// One buffer slot per point in flight: a finished point hands over
	// its result without waiting for the loop to finish a journal write.
	finished := make(chan *finishedPoint, slots)
	running := make(map[int]bool, slots)
	// Heartbeat the running claims, so a healthy long point is never
	// stolen. Beats are fire-and-forget: if a lease is lost anyway (the
	// whole process was paused), Commit detects it.
	beat := time.NewTicker(max(lease/3, time.Millisecond))
	defer beat.Stop()
	var fatal error

	for {
		var wait time.Duration
		// A loop with free slots looks for a point to claim; one that
		// runs nothing watches the queue every poll.
		if runCtx.Err() == nil && (len(running) < slots || slots == 0) {
			st, err := qf.Load()
			if err != nil {
				fatal = wrapQueueErr(err)
				stop()
				continue
			}
			if opts.Progress != nil && st.DoneCount() > reported {
				reported = st.DoneCount()
				opts.Progress(reported, len(rates))
			}
			if st.Complete() && len(running) == 0 {
				return own, stats, nil
			}
			if slots == 0 {
				wait = poll
			} else if idx, steal := pickClaim(st, start, running); idx < 0 {
				// Every unsettled point is actively held; wait for a
				// commit, an expiry or one of our own points.
				wait = poll
			} else if won, _, err := qf.TryClaim(idx, id, lease); err != nil {
				fatal = wrapQueueErr(err)
				stop()
				continue
			} else if !won {
				// Another worker's claim landed first; back off for half
				// to three quarters of a poll, keyed by worker and point
				// so the fleet does not retry in lockstep.
				wait = backoff.Delay(1, poll/2, poll, workerHash(fmt.Sprintf("%s/%d", id, idx)))
			} else {
				stats.Claims++
				if steal {
					stats.Steals++
				}
				if opts.dieAfterClaims > 0 && stats.Claims >= opts.dieAfterClaims {
					// Abandon every claim: no drop, no commit.
					stop()
					for range running {
						<-finished
					}
					return own, stats, errWorkerCrashed
				}
				if opts.holdPoint != nil {
					opts.holdPoint(idx)
				}
				running[idx] = true
				go func() { finished <- runClaimed(runCtx, run, cfg, rates, idx, journal) }()
				continue
			}
		}
		if len(running) == 0 && runCtx.Err() != nil {
			if fatal != nil {
				return own, stats, fatal
			}
			return own, stats, ctx.Err()
		}

		var timer *time.Timer
		var expired <-chan time.Time
		if wait > 0 {
			timer = time.NewTimer(wait)
			expired = timer.C
		}
		var done <-chan struct{}
		if runCtx.Err() == nil {
			done = runCtx.Done()
		}
		select {
		case p := <-finished:
			delete(running, p.idx)
			if errors.Is(p.err, ErrBackendDown) {
				stats.BackendDown++
			}
			if p.encErr != nil && fatal == nil {
				// Nothing to commit: the result did not encode.
				fatal = p.encErr
				stop()
			}
			if fatal != nil || (p.err != nil && runCtx.Err() != nil) {
				// The sweep is being stopped, not the point organically
				// failing: release the claim at once.
				_ = qf.Drop(p.idx, id)
				break
			}
			switch err := qf.Commit(p.idx, id, p.payload, p.final); {
			case errors.Is(err, ErrLeaseLost):
				// Paused past the lease and stolen from: the thief
				// re-runs the point; this result is discarded.
				stats.LeasesLost++
			case err != nil:
				fatal = wrapQueueErr(err)
				stop()
			default:
				stats.Commits++
				own[p.idx] = p
			}
		case <-beat.C:
			for idx := range running {
				_ = qf.Beat(idx, id, lease)
			}
		case <-expired:
		case <-done:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// pickClaim chooses the next point to claim, scanning from the worker's
// rotation offset and skipping the points it is running: first a pending
// point, failing that a claim whose lease has expired (a steal
// candidate). Returns -1 when every unsettled point is actively held.
func pickClaim(st *queue.State, start int, running map[int]bool) (idx int, steal bool) {
	n := len(st.Points)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if st.Points[i].Status == queue.Pending && !running[i] {
			return i, false
		}
	}
	now := time.Now().UnixMilli()
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if st.Points[i].Status == queue.Claimed && now > st.Points[i].Deadline && !running[i] {
			return i, true
		}
	}
	return -1, false
}

// workerHash is a stable identity hash for claim-scan rotation and
// lost-claim backoff.
func workerHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// mergeQueueState gathers the settled points into results in index
// order — the deterministic merge that makes every sweep's output
// byte-identical to an in-memory one. A point this process committed
// itself (own, still held by id) keeps its live result and error;
// payloads are decoded only for points another process committed, and
// their failures are rebuilt as typed errors from their outcome codes.
// Unsettled points have a nil result and, when the sweep stopped early,
// an error wrapping unsettled, its cause. Failures are aggregated into a
// *SweepError.
func mergeQueueState(st *queue.State, rates []float64, own []*finishedPoint, id string, unsettled error) ([]*Result, error) {
	results := make([]*Result, len(rates))
	errs := make([]error, len(rates))
	for i := range st.Points {
		if i >= len(rates) {
			break
		}
		p := st.Points[i]
		switch {
		case p.Status != queue.Done:
			if unsettled != nil {
				errs[i] = fmt.Errorf("orion: sweep point at rate %g not settled: %w", rates[i], unsettled)
			}
		case own[i] != nil && p.Holder == id:
			results[i], errs[i] = own[i].res, own[i].err
		default:
			var jp journalPoint
			if err := json.Unmarshal(p.Payload, &jp); err != nil {
				return results, fmt.Errorf("%w: undecodable committed payload for point %d: %v", ErrJournal, i, err)
			}
			if jp.Result != nil {
				results[i] = jp.Result
			} else {
				errs[i] = fmt.Errorf("orion: journaled failure at rate %g: %w", jp.Rate,
					outcome.Err(jp.ErrKind, jp.Faulted, jp.Err))
			}
		}
	}
	if serr := collectSweepError(rates, errs); serr != nil {
		return results, serr
	}
	return results, nil
}

// PointState is one sweep point's operator-facing status, reported by
// JournalStatus: done (result committed), failed (error committed),
// claimed (held by a live or dead worker), or pending (not yet taken).
type PointState struct {
	// Index and Rate identify the point.
	Index int
	Rate  float64
	// State is "done", "failed", "claimed" or "pending".
	State string
	// Worker is the claim holder or committer (queue journals only).
	Worker string
	// LeaseExpired marks a claimed point whose lease has lapsed — the
	// signature of a dead worker awaiting a steal.
	LeaseExpired bool
	// Err is the committed failure message (failed points).
	Err string
}

// JournalStatus reports per-point state for a sweep journal, for
// operators inspecting a crashed or in-flight sweep or fleet. A missing
// or empty journal yields an empty slice; a malformed one — or a
// version-1 journal, which is no longer read — fails with an error
// wrapping ErrJournal.
func JournalStatus(path string) ([]PointState, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrJournal, path, err)
	}
	if len(data) == 0 {
		return nil, nil
	}
	st, err := queue.DecodeState(data)
	if err != nil {
		return nil, wrapQueueErr(fmt.Errorf("%s: %w", path, err))
	}
	return queuePointStates(st), nil
}

// queuePointStates renders a replayed queue state for operators.
func queuePointStates(st *queue.State) []PointState {
	now := time.Now().UnixMilli()
	out := make([]PointState, len(st.Points))
	for i := range st.Points {
		p := st.Points[i]
		ps := PointState{Index: i, Worker: p.Holder}
		if i < len(st.Header.Rates) {
			ps.Rate = st.Header.Rates[i]
		}
		switch p.Status {
		case queue.Pending:
			ps.State = "pending"
			ps.Worker = ""
		case queue.Claimed:
			ps.State = "claimed"
			ps.LeaseExpired = now > p.Deadline
		case queue.Done:
			ps.State = "done"
			var jp journalPoint
			if err := json.Unmarshal(p.Payload, &jp); err == nil && jp.Result == nil {
				ps.State = "failed"
				ps.Err = jp.Err
			}
		}
		out[i] = ps
	}
	return out
}
