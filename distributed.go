package orion

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"orion/internal/backoff"
	"orion/internal/outcome"
	"orion/internal/queue"
)

// Distributed sweep execution: the sweep journal promoted to a shared
// work-queue protocol (internal/queue). Any number of SweepWorker
// processes on a shared filesystem claim points from one queue journal
// with leased, heartbeat-renewed claim records; expired leases are
// stolen, so points held by crashed workers are re-run; and the merged
// result is byte-identical to a sequential Sweep of the same
// configuration, because point runs are deterministic and exactly one
// committed result per point ever takes effect.

// sweepConfigDigest computes the hex digest that binds a journal or
// queue file to one sweep configuration. The injection rate is
// normalised to zero — the sweep overrides it per point — so sweeps of
// the same config at different rate lists share a digest and differ in
// the header's explicit rate list instead.
func sweepConfigDigest(cfg Config) (string, error) {
	normCfg := cfg
	normCfg.Traffic.Rate = 0
	digest, err := ConfigDigest(normCfg)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(digest), nil
}

// SweepConfigDigest is the exported form of the digest that binds sweep
// journals and work-queue files to one configuration: the hex SHA-256 of
// the canonical config JSON with the injection rate normalised to zero.
// The serving layer keys its sweep result cache with it so a served sweep
// and an on-disk journal of the same configuration share an identity.
func SweepConfigDigest(cfg Config) (string, error) {
	return sweepConfigDigest(cfg)
}

// sweepQueueHeader builds the queue-journal header identifying this
// sweep.
func sweepQueueHeader(cfg Config, rates []float64) (queue.Header, error) {
	d, err := sweepConfigDigest(cfg)
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

// openSweepQueue initialises (or, with resume set, rejoins) the queue
// journal for a sweep at path and returns it open. With resume, an
// existing queue's header must match the configuration and rate list —
// a mismatch fails with an error wrapping ErrStaleJournal — and every
// point settled by a transient failure (timeout, panic) is re-opened for
// re-running; a missing file is a fresh start. Without resume, any
// existing file is truncated and the sweep starts over.
func openSweepQueue(path string, cfg Config, rates []float64, resume bool) (*queue.File, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return nil, err
	}
	qf, err := queue.Create(path, hdr, !resume)
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	if resume {
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

// CreateSweepQueue initialises (or, with resume set, rejoins) the
// work-queue journal for a sweep at path, for SweepWorker processes to
// fill. Resume semantics are SweepJournaledContext's: an existing
// queue's header must match the configuration and rate list — a
// mismatch fails with an error wrapping ErrStaleJournal — and every
// point settled by a transient failure is re-opened for re-running.
// Without resume, any existing file is truncated and the sweep starts
// over.
func CreateSweepQueue(path string, cfg Config, rates []float64, resume bool) error {
	qf, err := openSweepQueue(path, cfg, rates, resume)
	if err != nil {
		return err
	}
	return qf.Close()
}

// SweepWorkerOptions configures one queue worker.
type SweepWorkerOptions struct {
	// Path is the shared queue journal (created by CreateSweepQueue or a
	// -distributed coordinator).
	Path string
	// WorkerID identifies this worker in claim records; when empty a
	// host-pid-random identity is generated.
	WorkerID string
	// Lease is how long a claim stays unstealable without a heartbeat;
	// it bounds how long a dead worker's points stay stuck. Default 5s.
	Lease time.Duration
	// Poll is the idle re-scan interval while other workers hold the
	// remaining points. Default Lease/5.
	Poll time.Duration
	// Run executes one claimed point. Nil means local execution
	// (RunPoint); a remote dispatch pool (internal/remote) plugs in here
	// so claimed points execute on orion-serve backends while the
	// lease/heartbeat/commit machinery stays unchanged.
	Run PointRunner

	// Test hooks. dieAfterClaims, when positive, makes the worker abandon
	// the run after claiming its N-th point — no drop, no commit — the
	// in-process stand-in for SIGKILL. holdPoint, when set, is called
	// between a winning claim and the point run, the stand-in for a
	// SIGSTOP that outlives the lease.
	dieAfterClaims int
	holdPoint      func(idx int)
}

// WorkerStats summarises one worker's participation in a queue.
type WorkerStats struct {
	// Claims counts won claims; Steals counts the subset that took over
	// an expired lease.
	Claims, Steals int
	// Commits counts results durably committed; LeasesLost counts
	// results discarded because the claim was stolen while the point ran
	// (the point is re-run by the thief — no double-commit).
	Commits, LeasesLost int
	// BackendDown counts point runs that failed because every remote
	// backend was circuit-broken with local fallback disabled
	// (errors wrapping ErrBackendDown). Always zero for local runners.
	BackendDown int
}

// errWorkerCrashed marks a worker abandoned by the dieAfterClaims chaos
// hook, so tests can tell a simulated SIGKILL from a real failure.
var errWorkerCrashed = errors.New("orion: worker crashed (chaos hook)")

// SweepWorker joins the queue journal at opts.Path and runs sweep points
// one at a time until every point is settled (returns nil) or ctx is
// cancelled (the in-flight claim is dropped for other workers to take,
// and ctx's error returned). The configuration and rate list must match
// the queue's header: a mismatch fails with an error wrapping
// ErrStaleJournal. Each claimed point runs with the same per-point
// retry/backoff machinery as Sweep; a worker paused past its lease
// discards its result when it finds its claim stolen (ErrLeaseLost,
// counted in the returned stats) and moves on.
func SweepWorker(ctx context.Context, cfg Config, rates []float64, opts SweepWorkerOptions) (WorkerStats, error) {
	if opts.Path == "" {
		return WorkerStats{}, fmt.Errorf("orion: SweepWorker requires a queue journal path")
	}
	if err := cfg.Validate(); err != nil {
		return WorkerStats{}, err
	}
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return WorkerStats{}, err
	}
	qf, err := queue.Open(opts.Path, hdr)
	if err != nil {
		return WorkerStats{}, wrapQueueErr(err)
	}
	defer qf.Close()
	return claimLoop(ctx, qf, cfg, rates, opts, 1)
}

// finishedPoint is one claimed point's run, reported by the goroutine
// that ran it to its claim loop.
type finishedPoint struct {
	idx int
	// err is the run's error, or the encoding error when payload is nil.
	err error
	// payload is the encoded journalPoint for the done record.
	payload []byte
	final   bool
}

// runClaimed runs one claimed point and encodes its journal payload.
func runClaimed(ctx context.Context, run PointRunner, cfg Config, rates []float64, idx int) finishedPoint {
	res, err := run(ctx, cfg, rates[idx])
	p := journalPoint{Index: idx, Rate: rates[idx], Result: res}
	if err != nil {
		p.Result, p.Err = nil, err.Error()
		p.ErrKind, p.Faulted = outcome.Code(err)
	}
	payload, merr := json.Marshal(p)
	if merr != nil {
		err = fmt.Errorf("orion: encoding queue result: %w", merr)
	}
	return finishedPoint{idx: idx, err: err, payload: payload, final: err == nil || outcome.Final(p.ErrKind)}
}

// claimLoop is one worker on an open queue journal: a single loop that
// claims points, keeps up to slots of them running at once, heartbeats
// them and commits each result as it lands, until every point is
// settled (nil) or ctx is cancelled (ctx's error). The loop alone reads
// and claims, so the points of one process never race each other for a
// claim, and an idle loop wakes as soon as one of its own points
// finishes. Claims, beats and commits stay per point: exactly one commit
// per point takes effect whoever runs it. Points cut short by
// cancellation or a journal failure have their claims dropped, so other
// workers take them without waiting out the lease.
func claimLoop(ctx context.Context, qf *queue.File, cfg Config, rates []float64, opts SweepWorkerOptions, slots int) (WorkerStats, error) {
	var stats WorkerStats
	id := opts.WorkerID
	if id == "" {
		id = queue.NewWorkerID()
	}
	run := opts.Run
	if run == nil {
		run = RunPoint
	}
	lease := opts.Lease
	if lease <= 0 {
		lease = 5 * time.Second
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = lease / 5
	}
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	// Workers start their claim scans at different offsets so a fresh
	// fleet fans out over the rate list instead of racing index 0.
	start := int(workerHash(id) % uint64(max(len(rates), 1)))

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	// One buffer slot per point in flight: a finished point hands over
	// its result without waiting for the loop to finish a journal write.
	finished := make(chan finishedPoint, slots)
	running := make(map[int]bool, slots)
	// Heartbeat the running claims, so a healthy long point is never
	// stolen. Beats are fire-and-forget: if a lease is lost anyway (the
	// whole process was paused), Commit detects it.
	beat := time.NewTicker(max(lease/3, time.Millisecond))
	defer beat.Stop()
	var fatal error

	for {
		var wait time.Duration
		if len(running) < slots && runCtx.Err() == nil {
			st, err := qf.Load()
			if err != nil {
				fatal = wrapQueueErr(err)
				stop()
				continue
			}
			if st.Complete() && len(running) == 0 {
				return stats, nil
			}
			idx, steal := pickClaim(st, start, running)
			if idx < 0 {
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
					return stats, errWorkerCrashed
				}
				if opts.holdPoint != nil {
					opts.holdPoint(idx)
				}
				running[idx] = true
				go func() { finished <- runClaimed(runCtx, run, cfg, rates, idx) }()
				continue
			}
		}
		if len(running) == 0 && runCtx.Err() != nil {
			if fatal != nil {
				return stats, fatal
			}
			return stats, ctx.Err()
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
			if p.payload == nil && fatal == nil {
				// Nothing to commit: the result did not encode.
				fatal = p.err
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

// mergeQueueState decodes the committed payloads into results in index
// order — the deterministic merge that makes a distributed sweep's
// output byte-identical to a sequential Sweep's. Unsettled points stay
// nil; settled failures are rebuilt as typed errors from their outcome
// codes and aggregated into a *SweepError exactly like Sweep does.
func mergeQueueState(st *queue.State, rates []float64) ([]*Result, error) {
	results := make([]*Result, len(rates))
	errs := make([]error, len(rates))
	for i := range st.Points {
		if i >= len(rates) {
			break
		}
		p := st.Points[i]
		if p.Status != queue.Done {
			continue
		}
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
	if serr := collectSweepError(rates, errs); serr != nil {
		return results, serr
	}
	return results, nil
}

// SweepQueueWait blocks until every point in the queue journal at path
// is settled, then merges the committed results in index order —
// byte-identical to a sequential Sweep of the same configuration. This
// is the coordinator's second half: workers (local goroutines via
// SweepDistributed, or separate `orion-sweep -worker` processes) fill
// the queue; SweepQueueWait watches and merges. On ctx cancellation the
// partial merge is returned together with ctx's error.
func SweepQueueWait(ctx context.Context, cfg Config, rates []float64, path string, poll time.Duration) ([]*Result, error) {
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return nil, err
	}
	qf, err := queue.Open(path, hdr)
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	defer qf.Close()
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := qf.Load()
		if err != nil {
			return nil, wrapQueueErr(err)
		}
		if st.Complete() {
			return mergeQueueState(st, rates)
		}
		if ctx.Err() != nil {
			results, merr := mergeQueueState(st, rates)
			return results, errors.Join(ctx.Err(), merr)
		}
		backoff.Sleep(ctx, poll)
	}
}

// DistributedSweepOptions configures SweepDistributed.
type DistributedSweepOptions struct {
	// Path is the shared queue journal.
	Path string
	// Workers is the number of points this process runs at once; <= 0
	// means NumCPU.
	Workers int
	// Lease and Poll tune the workers (see SweepWorkerOptions).
	Lease, Poll time.Duration
	// Resume joins an existing queue journal instead of starting over:
	// settled points are kept (transient failures re-opened), points
	// claimed by dead workers are stolen once their leases expire.
	Resume bool
	// Run executes each claimed point; nil means local execution. See
	// SweepWorkerOptions.Run.
	Run PointRunner
}

// SweepDistributed runs a sweep through the work-queue protocol in this
// process: it creates (or resumes) the queue journal at opts.Path, runs
// one claim loop with up to opts.Workers points in flight, and merges
// the committed results. The merged results are byte-identical to
// Sweep(cfg, rates) — the protocol guarantees exactly one committed
// result per point and point runs are deterministic. Separate worker
// processes (orion-sweep -worker) may join the same journal while this
// runs; the merge does not care who committed each point, and points a
// killed process still holds are re-run once their leases expire.
func SweepDistributed(ctx context.Context, cfg Config, rates []float64, opts DistributedSweepOptions) ([]*Result, error) {
	if opts.Path == "" {
		return nil, fmt.Errorf("orion: SweepDistributed requires a queue journal path")
	}
	qf, err := openSweepQueue(opts.Path, cfg, rates, opts.Resume)
	if err != nil {
		return nil, err
	}
	defer qf.Close()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	_, werr := claimLoop(ctx, qf, cfg, rates, SweepWorkerOptions{
		Lease: opts.Lease,
		Poll:  opts.Poll,
		Run:   opts.Run,
	}, workers)

	st, err := qf.Load()
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	results, merr := mergeQueueState(st, rates)
	if !st.Complete() {
		// The loop stopped without finishing the queue: cancellation or
		// a journal failure. Surface it with the partial merge.
		if errors.Is(werr, context.Canceled) {
			werr = nil
		}
		return results, fmt.Errorf("orion: distributed sweep incomplete (%d/%d points settled): %w",
			st.DoneCount(), len(rates), errors.Join(ctx.Err(), werr, merr))
	}
	return results, merr
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
