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
	"sync"
	"time"

	"orion/internal/backoff"
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
// passes through untouched.
func wrapQueueErr(err error) error {
	if err == nil || errors.Is(err, ErrJournal) || errors.Is(err, ErrLeaseLost) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrJournal, err)
}

// CreateSweepQueue initialises (or, with resume set, rejoins) the
// distributed work-queue journal for a sweep at path. With resume, an
// existing queue's header must match the configuration and rate list —
// a mismatch fails with an error wrapping ErrStaleJournal — and every
// point settled by a transient failure (timeout, panic) is re-opened
// for re-running, mirroring SweepJournaled's resume semantics. Without
// resume, any existing file is truncated and the sweep starts over.
func CreateSweepQueue(path string, cfg Config, rates []float64, resume bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return err
	}
	qf, err := queue.Create(path, hdr, !resume)
	if err != nil {
		return wrapQueueErr(err)
	}
	defer qf.Close()
	if resume {
		st, err := qf.Load()
		if err != nil {
			return wrapQueueErr(err)
		}
		for i := range st.Points {
			if st.Points[i].Status == queue.Done && !st.Points[i].Final {
				if err := qf.Reset(i); err != nil {
					return wrapQueueErr(err)
				}
			}
		}
	}
	return nil
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
// until every point is settled (returns nil) or ctx is cancelled
// (in-flight claims are dropped for other workers to take, and ctx's
// error returned). The configuration and rate list must match the
// queue's header: a mismatch fails with an error wrapping
// ErrStaleJournal. Each claimed point runs with the same per-point
// retry/backoff machinery as Sweep; a worker paused past its lease
// discards its result when it finds its claim stolen (ErrLeaseLost,
// counted in the returned stats) and moves on.
func SweepWorker(ctx context.Context, cfg Config, rates []float64, opts SweepWorkerOptions) (WorkerStats, error) {
	var stats WorkerStats
	if opts.Path == "" {
		return stats, fmt.Errorf("orion: SweepWorker requires a queue journal path")
	}
	if err := cfg.Validate(); err != nil {
		return stats, err
	}
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return stats, err
	}
	qf, err := queue.Open(opts.Path, hdr)
	if err != nil {
		return stats, wrapQueueErr(err)
	}
	defer qf.Close()

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

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		st, err := qf.Load()
		if err != nil {
			return stats, wrapQueueErr(err)
		}
		if st.Complete() {
			return stats, nil
		}
		idx, steal := pickClaim(st, start)
		if idx < 0 {
			// Every unsettled point is actively held; wait for a commit
			// or an expiry.
			if !backoff.Sleep(ctx, poll) {
				return stats, ctx.Err()
			}
			continue
		}
		won, _, err := qf.TryClaim(idx, id, lease)
		if err != nil {
			return stats, wrapQueueErr(err)
		}
		if !won {
			// Another worker's claim landed first; back off for half to
			// three quarters of a poll, keyed by worker and point so the
			// fleet does not retry in lockstep.
			key := workerHash(fmt.Sprintf("%s/%d", id, idx))
			if !backoff.Sleep(ctx, backoff.Delay(1, poll/2, poll, key)) {
				return stats, ctx.Err()
			}
			continue
		}
		stats.Claims++
		if steal {
			stats.Steals++
		}
		if opts.dieAfterClaims > 0 && stats.Claims >= opts.dieAfterClaims {
			return stats, errWorkerCrashed
		}
		if opts.holdPoint != nil {
			opts.holdPoint(idx)
		}

		// Heartbeat the claim while the point runs, so a healthy long
		// point is never stolen. Beats are fire-and-forget: if the lease
		// is lost anyway (e.g. the whole process was paused), Commit
		// detects it.
		hbStop := make(chan struct{})
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(lease / 3)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					_ = qf.Beat(idx, id, lease)
				}
			}
		}()
		res, rerr := run(ctx, cfg, rates[idx])
		close(hbStop)
		hbWG.Wait()
		if rerr != nil && errors.Is(rerr, ErrBackendDown) {
			stats.BackendDown++
		}

		if rerr != nil && ctx.Err() != nil {
			// The sweep is being cancelled, not the point organically
			// failing: release the claim immediately so surviving
			// workers re-run it without waiting out the lease.
			_ = qf.Drop(idx, id)
			return stats, ctx.Err()
		}

		p := journalPoint{Index: idx, Rate: rates[idx]}
		if rerr == nil {
			p.Result = res
		} else {
			p.Err = rerr.Error()
			p.ErrKind = errKindOf(rerr)
			p.Faulted = errors.Is(rerr, ErrFaulted)
		}
		payload, merr := json.Marshal(p)
		if merr != nil {
			return stats, fmt.Errorf("orion: encoding queue result: %w", merr)
		}
		final := rerr == nil || deterministicKind(p.ErrKind)
		switch cerr := qf.Commit(idx, id, payload, final); {
		case errors.Is(cerr, ErrLeaseLost):
			// Paused past the lease and stolen from: the thief re-runs
			// the point; this result is discarded.
			stats.LeasesLost++
		case cerr != nil:
			return stats, wrapQueueErr(cerr)
		default:
			stats.Commits++
		}
	}
}

// pickClaim chooses the next point to claim, scanning from the worker's
// rotation offset: first a pending point, failing that a claim whose
// lease has expired (a steal candidate). Returns -1 when every
// unsettled point is actively held.
func pickClaim(st *queue.State, start int) (idx int, steal bool) {
	n := len(st.Points)
	if n == 0 {
		return -1, false
	}
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if st.Points[i].Status == queue.Pending {
			return i, false
		}
	}
	now := time.Now().UnixMilli()
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if st.Points[i].Status == queue.Claimed && now > st.Points[i].Deadline {
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
// nil; settled failures are reconstructed as typed errors (journaledErr)
// and aggregated into a *SweepError exactly like Sweep does.
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
			errs[i] = journaledErr(jp)
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
	// Workers is the number of in-process workers; <= 0 means NumCPU.
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

// SweepDistributed runs a sweep through the work-queue protocol with
// in-process workers: it creates (or resumes) the queue journal at
// opts.Path, runs opts.Workers concurrent SweepWorker loops, and merges
// the committed results. The merged results are byte-identical to
// Sweep(cfg, rates) — the protocol guarantees exactly one committed
// result per point and point runs are deterministic. Separate worker
// processes (orion-sweep -worker) may join the same journal while this
// runs; the merge does not care who committed each point.
func SweepDistributed(ctx context.Context, cfg Config, rates []float64, opts DistributedSweepOptions) ([]*Result, error) {
	if opts.Path == "" {
		return nil, fmt.Errorf("orion: SweepDistributed requires a queue journal path")
	}
	if err := CreateSweepQueue(opts.Path, cfg, rates, opts.Resume); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(rates))
	werrs := make([]error, workers)
	runPool(workers, workers, func(w int) {
		_, werrs[w] = SweepWorker(ctx, cfg, rates, SweepWorkerOptions{
			Path:     opts.Path,
			Lease:    opts.Lease,
			Poll:     opts.Poll,
			WorkerID: fmt.Sprintf("%s/w%d", queue.NewWorkerID(), w),
			Run:      opts.Run,
		})
	})

	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		return nil, err
	}
	qf, err := queue.Open(opts.Path, hdr)
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	defer qf.Close()
	st, err := qf.Load()
	if err != nil {
		return nil, wrapQueueErr(err)
	}
	results, merr := mergeQueueState(st, rates)
	if !st.Complete() {
		// Every worker exited without finishing the queue — cancellation
		// or worker failures. Surface them with the partial merge.
		joined := []error{ctx.Err()}
		for _, werr := range werrs {
			if werr != nil && !errors.Is(werr, context.Canceled) {
				joined = append(joined, werr)
			}
		}
		joined = append(joined, merr)
		return results, fmt.Errorf("orion: distributed sweep incomplete (%d/%d points settled): %w",
			st.DoneCount(), len(rates), errors.Join(joined...))
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

// JournalStatus reports per-point state for a sweep journal — either the
// single-process write-ahead format (version 1) or the distributed
// work-queue format (version 2) — for operators inspecting a crashed or
// in-flight fleet. A missing or empty journal yields an empty slice; a
// malformed one fails with an error wrapping ErrJournal.
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
	if journalImageVersion(data) == queue.Version {
		st, err := queue.DecodeState(data)
		if err != nil {
			return nil, wrapQueueErr(err)
		}
		return queuePointStates(st), nil
	}
	st, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	if !st.hasHeader {
		return nil, nil
	}
	out := make([]PointState, len(st.header.Rates))
	for i, r := range st.header.Rates {
		out[i] = PointState{Index: i, Rate: r, State: "pending"}
	}
	for _, p := range st.points {
		if p.Index < 0 || p.Index >= len(out) {
			return nil, fmt.Errorf("%w: %s records point index %d outside the %d-rate sweep",
				ErrJournal, path, p.Index, len(out))
		}
		if p.Result != nil {
			out[p.Index].State = "done"
		} else {
			out[p.Index].State = "failed"
			out[p.Index].Err = p.Err
		}
	}
	return out, nil
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

// journalImageVersion sniffs the format version from a journal image's
// first intact line; 0 when there is none.
func journalImageVersion(data []byte) int {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return 0
	}
	var h struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data[:nl], &h); err != nil {
		return 0
	}
	return h.Version
}
