package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"orion"
	taxonomy "orion/internal/outcome"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size; <= 0 means NumCPU.
	Workers int
	// QueueDepth is the admission waiting room in front of the workers;
	// a request that finds it full is shed with orion.ErrOverloaded.
	// 0 means no waiting room (admit only when a worker is idle);
	// negative is rejected.
	QueueDepth int
	// CacheDir is the persistent result-cache directory; "" disables
	// caching.
	CacheDir string
	// DefaultDeadline bounds requests that carry no deadline_ms of
	// their own; 0 means no default bound.
	DefaultDeadline time.Duration
	// MaxDeadline caps any request's deadline; 0 means no cap.
	MaxDeadline time.Duration
	// DrainTimeout bounds the graceful-drain wait for in-flight work;
	// past it, in-flight runs are cancelled (not abandoned) and the
	// drain completes once they unwind. <= 0 means 10s.
	DrainTimeout time.Duration
	// MaxJobs bounds the retained async-job table; completed jobs are
	// evicted oldest-first beyond it. <= 0 means 1024.
	MaxJobs int
	// RunPoint overrides how sweep points execute; nil means local
	// execution. A remote backend pool (internal/remote) plugs in here so
	// a served sweep dispatches its points to other orion-serve
	// instances — the server stays the protocol front-end while the
	// points run elsewhere.
	RunPoint orion.PointRunner
}

// Stats is an operator snapshot of the server's counters.
type Stats struct {
	// Requests counts handled protocol requests; Shed counts those
	// rejected by admission control.
	Requests, Shed uint64
	// Cache is the result-cache traffic.
	Cache CacheStats
}

// Server schedules simulation requests on a bounded worker pool with
// admission control, per-request deadlines, a persistent digest-keyed
// result cache, and singleflight dedup of identical in-flight requests.
// One Server is shared by the stdio and HTTP front-ends; Handle is safe
// for concurrent use.
type Server struct {
	opts   Options
	cache  *Cache
	pool   *pool
	flight flightGroup
	jobs   jobTable

	// base is the execution context: requests run under it (plus their
	// own deadline), so hard-stopping the server cancels every
	// in-flight simulation at once.
	base     context.Context
	stopExec context.CancelFunc

	mu       sync.Mutex
	draining bool
	requests uint64
	execWG   sync.WaitGroup

	// Seams for tests: the actual simulation entry points.
	runSim   func(context.Context, orion.Config) (*orion.Result, error)
	sweepSim func(context.Context, orion.Config, []float64, orion.SweepProgress) ([]*orion.Result, error)
}

// New builds a Server. The cache directory is opened (and created)
// immediately so a misconfigured path fails at startup, not on the
// first request.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: QueueDepth: must not be negative, got %d", opts.QueueDepth)
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	var cache *Cache
	if opts.CacheDir != "" {
		var err error
		cache, err = OpenCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		cache:    cache,
		pool:     newPool(opts.Workers, opts.QueueDepth),
		base:     base,
		stopExec: stop,
		runSim:   orion.RunContext,
		sweepSim: func(ctx context.Context, cfg orion.Config, rates []float64, progress orion.SweepProgress) ([]*orion.Result, error) {
			return orion.SweepWithRunner(ctx, cfg, rates, opts.RunPoint, progress)
		},
	}
	s.jobs.limit = opts.MaxJobs
	return s, nil
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	requests := s.requests
	s.mu.Unlock()
	return Stats{Requests: requests, Shed: s.pool.shedCount(), Cache: s.cache.Stats()}
}

// tryBegin registers one unit of in-flight work unless the server is
// draining. Registration is serialised with Drain's transition, so work
// is either fully tracked (Drain waits for it) or fully rejected.
func (s *Server) tryBegin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.execWG.Add(1)
	return true
}

func (s *Server) end() { s.execWG.Done() }

// Drain gracefully shuts the server down: stop admitting (new requests
// receive code "draining", readiness goes false), wait for in-flight
// requests and async jobs to settle within DrainTimeout, cancel the
// stragglers and wait for them to unwind, then flush the cache index.
// Drain is idempotent and always returns with the server quiesced; the
// error only reports a cache-index flush failure.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		// Past the drain deadline: cancel every in-flight simulation
		// (they poll their context between cycles and abort promptly)
		// and wait for the unwind.
		s.stopExec()
		<-done
	}
	s.stopExec()
	s.pool.close()
	return s.cache.FlushIndex()
}

// Handle processes one request and always returns a response (never
// nil). ctx is the caller's wait: if it expires while the request is
// queued or running, Handle returns a timeout/cancelled response while
// any deduplicated execution keeps running for its other waiters.
func (s *Server) Handle(ctx context.Context, req *Request) *Response {
	s.mu.Lock()
	s.requests++
	s.mu.Unlock()
	if err := req.Validate(); err != nil {
		return failResp(req.ID, CodeBadRequest, err.Error())
	}
	if req.Op == OpJob {
		resp, ok := s.jobs.get(req.Job)
		if !ok {
			return failResp(req.ID, CodeNotFound, fmt.Sprintf("serve: unknown job %q", req.Job))
		}
		resp.ID = req.ID
		return resp
	}
	if s.Draining() {
		return failResp(req.ID, CodeDraining, "serve: server is draining, not admitting requests")
	}

	cfg, err := orion.LoadConfigJSON(req.Config)
	if err != nil {
		return failResp(req.ID, CodeBadRequest, err.Error())
	}
	// A serve pool already runs requests concurrently across cores;
	// letting each run also auto-resolve to GOMAXPROCS tick workers
	// would oversubscribe every core (the same policy as sweep points).
	if cfg.Sim.Workers == 0 {
		cfg.Sim.Workers = 1
	}
	digest, err := requestDigest(req.Op, cfg, req.Rates)
	if err != nil {
		return failResp(req.ID, CodeInternal, err.Error())
	}

	if req.Async {
		return s.submitJob(req, cfg, digest)
	}
	out, cached, shared := s.resolve(ctx, req, cfg, digest, nil)
	_ = shared
	return out.response(req.ID, digest, cached)
}

// resolve produces the outcome for a request: cache lookup, then
// singleflight-deduplicated execution on the worker pool.
func (s *Server) resolve(ctx context.Context, req *Request, cfg orion.Config, digest string, progress orion.SweepProgress) (out *outcome, cached, shared bool) {
	if !req.NoCache {
		if payload, ok := s.cache.Get(digest); ok {
			if o := decodeOutcome(payload); o != nil {
				return o, true, false
			}
			// Undecodable payload behind a valid CRC: a foreign or
			// future entry. Recompute and overwrite.
		}
	}
	out, shared, err := s.flight.do(ctx, digest, func() *outcome {
		return s.execute(req, cfg, digest, progress)
	})
	if err != nil {
		// The caller gave up waiting; the execution (if any) continues
		// for other waiters and still lands in the cache.
		return errOutcome(err), false, shared
	}
	return out, false, shared
}

// execute is the singleflight leader body: admission, deadline, run,
// cache write. It runs on the flight goroutine and is detached from any
// single caller's context — only a server drain cancels it.
func (s *Server) execute(req *Request, cfg orion.Config, digest string, progress orion.SweepProgress) *outcome {
	if !s.tryBegin() {
		return &outcome{Code: CodeDraining, Error: "serve: server is draining, not admitting requests"}
	}
	defer s.end()

	resCh := make(chan *outcome, 1)
	job := func() { resCh <- s.simulate(req, cfg, progress) }
	if err := s.pool.submit(job); err != nil {
		return errOutcome(err)
	}
	out := <-resCh
	if out.cacheable() {
		if payload, err := json.Marshal(out); err == nil {
			// A failed write only costs the next identical request a
			// recompute; it must not fail this one.
			_ = s.cache.Put(digest, payload)
		}
	}
	return out
}

// simulate runs the simulation under the request deadline. It executes
// on a pool worker.
func (s *Server) simulate(req *Request, cfg orion.Config, progress orion.SweepProgress) *outcome {
	ctx := s.base
	if d := s.deadline(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		// Cancelled or expired while waiting in the queue.
		return errOutcome(err)
	}
	switch req.Op {
	case OpRun:
		res, err := s.runSim(ctx, cfg)
		if err != nil {
			return errOutcome(err)
		}
		return &outcome{Result: res}
	case OpSweep:
		results, err := s.sweepSim(ctx, cfg, req.Rates, progress)
		if err == nil {
			return &outcome{Results: results}
		}
		out := errOutcome(err)
		out.Results, out.PointCodes = results, pointCodes(len(req.Rates), err)
		return out
	default:
		return &outcome{Code: CodeInternal, Error: fmt.Sprintf("serve: unreachable op %q", req.Op)}
	}
}

// deadline resolves the request's effective deadline from the request
// field, the server default, and the server cap.
func (s *Server) deadline(req *Request) time.Duration {
	d := s.opts.DefaultDeadline
	if req.DeadlineMs > 0 {
		d = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if s.opts.MaxDeadline > 0 && (d == 0 || d > s.opts.MaxDeadline) {
		d = s.opts.MaxDeadline
	}
	return d
}

// submitJob registers an async job and resolves it in the background.
// The job goroutine is tracked like any execution, so a drain waits for
// submitted jobs (or cancels them at the drain deadline).
func (s *Server) submitJob(req *Request, cfg orion.Config, digest string) *Response {
	if !s.tryBegin() {
		return failResp(req.ID, CodeDraining, "serve: server is draining, not admitting requests")
	}
	id := s.jobs.add()
	// Detach the job's own copy of the request: the job outlives the
	// submitting call.
	jreq := *req
	jreq.Async = false
	// Seed the progress denominator immediately so the first poll of a
	// sweep job already distinguishes "0 of N" from "not a sweep".
	var progress orion.SweepProgress
	if jreq.Op == OpSweep {
		s.jobs.setProgress(id, 0, len(jreq.Rates))
		progress = func(done, total int) { s.jobs.setProgress(id, done, total) }
	}
	go func() {
		defer s.end()
		s.jobs.setStatus(id, JobRunning)
		out, cached, _ := s.resolve(s.base, &jreq, cfg, digest, progress)
		s.jobs.complete(id, out.response(jreq.ID, digest, cached))
	}()
	return &Response{ID: req.ID, OK: true, JobID: id, Status: JobQueued, Digest: digest}
}

// requestDigest is the cache/singleflight key: the hex SHA-256 over the
// operation, the config digest, and (for sweeps) the rate list. The
// config digest leaves out execution details (orion.ConfigDigest), so
// tuning them never splits the cache. For sweeps it is the same
// rate-normalised SweepConfigDigest that binds journals and work-queue
// files.
func requestDigest(op string, cfg orion.Config, rates []float64) (string, error) {
	var cfgDigest string
	switch op {
	case OpSweep:
		d, err := orion.SweepConfigDigest(cfg)
		if err != nil {
			return "", err
		}
		cfgDigest = d
	default:
		d, err := orion.ConfigDigest(cfg)
		if err != nil {
			return "", err
		}
		cfgDigest = hex.EncodeToString(d)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", op, cfgDigest)
	if len(rates) > 0 {
		rj, err := json.Marshal(rates)
		if err != nil {
			return "", err
		}
		h.Write(rj)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// outcome is the cache- and flight-shared result of one execution: what
// the simulation produced, independent of which caller asked. The JSON
// form is the cache entry payload.
type outcome struct {
	Result     *orion.Result   `json:"result,omitempty"`
	Results    []*orion.Result `json:"results,omitempty"`
	Code       string          `json:"code,omitempty"`
	Error      string          `json:"error,omitempty"`
	Faulted    bool            `json:"faulted,omitempty"`
	PointCodes []string        `json:"point_codes,omitempty"`
}

// response stamps an outcome with one caller's correlation fields.
func (o *outcome) response(id, digest string, cached bool) *Response {
	return &Response{
		ID:         id,
		OK:         o.Code == "",
		Cached:     cached,
		Code:       o.Code,
		Error:      o.Error,
		Faulted:    o.Faulted,
		Digest:     digest,
		Result:     o.Result,
		Results:    o.Results,
		PointCodes: o.PointCodes,
	}
}

// cacheable reports whether the outcome may be memoized: only
// deterministic outcomes — success, or failures that would reproduce
// exactly on a re-run (taxonomy.Final) — are stored. Transient outcomes
// (timeout, cancelled, overloaded, backend_down, internal) must be
// recomputed.
func (o *outcome) cacheable() bool {
	final := func(code string) bool { return code == "" || taxonomy.Final(code) }
	if !final(o.Code) {
		return false
	}
	for _, code := range o.PointCodes {
		if !final(code) {
			return false
		}
	}
	return true
}

// decodeOutcome parses a cache payload; nil means undecodable (the
// caller recomputes).
func decodeOutcome(payload []byte) *outcome {
	var o outcome
	if err := json.Unmarshal(payload, &o); err != nil {
		return nil
	}
	return &o
}

// errOutcome classifies an error into an outcome.
func errOutcome(err error) *outcome {
	code, faulted := taxonomy.Code(err)
	return &outcome{Code: code, Error: err.Error(), Faulted: faulted}
}

// pointCodes builds the per-point failure codes of an n-point sweep from
// its aggregated *SweepError ("" for points that succeeded).
func pointCodes(n int, err error) []string {
	codes := make([]string, n)
	var serr *orion.SweepError
	if errors.As(err, &serr) {
		for j, i := range serr.Index {
			if i < n {
				codes[i], _ = taxonomy.Code(serr.Errs[j])
			}
		}
	}
	return codes
}

func failResp(id, code, msg string) *Response {
	return &Response{ID: id, Code: code, Error: msg}
}
