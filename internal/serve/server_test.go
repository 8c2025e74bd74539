package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orion"
)

// testConfigJSON returns a small valid config, with the traffic seed
// varied so tests can mint distinct digests on demand.
func testConfigJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := orion.OnChip4x4(orion.VC16(), 0.02)
	cfg.Sim.SamplePackets = 40
	cfg.Traffic.Seed = seed
	data, err := orion.ConfigJSON(cfg)
	if err != nil {
		t.Fatalf("ConfigJSON: %v", err)
	}
	// Compact so the config embeds in a single JSON line (the stdio
	// protocol frames one request per line).
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("compacting config: %v", err)
	}
	return buf.Bytes()
}

// newTestServer builds a server with a cache in a temp dir and the
// simulation seams stubbed out; runs counts actual stub executions.
func newTestServer(t *testing.T, opts Options, run func(ctx context.Context, cfg orion.Config) (*orion.Result, error)) (*Server, *atomic.Int64) {
	t.Helper()
	if opts.CacheDir == "" {
		opts.CacheDir = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var runs atomic.Int64
	if run != nil {
		s.runSim = func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
			runs.Add(1)
			return run(ctx, cfg)
		}
	}
	t.Cleanup(func() { _ = s.Drain() })
	return s, &runs
}

func runReq(t *testing.T, cfg []byte) *Request {
	t.Helper()
	return &Request{Op: OpRun, Config: cfg}
}

func TestHandleRepeatedRequestServedFromCache(t *testing.T) {
	s, runs := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return &orion.Result{AvgLatency: 7}, nil
	})
	cfg := testConfigJSON(t, 1)

	first := s.Handle(context.Background(), runReq(t, cfg))
	if !first.OK || first.Cached {
		t.Fatalf("first response = %+v, want ok uncached", first)
	}
	second := s.Handle(context.Background(), runReq(t, cfg))
	if !second.OK || !second.Cached {
		t.Fatalf("second response = %+v, want ok cached", second)
	}
	if second.Result == nil || second.Result.AvgLatency != 7 {
		t.Fatalf("cached result = %+v, want the stored one", second.Result)
	}
	if first.Digest == "" || first.Digest != second.Digest {
		t.Fatalf("digests %q vs %q, want equal and non-empty", first.Digest, second.Digest)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times, want 1", got)
	}
}

func TestHandleCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfigJSON(t, 2)
	s1, runs1 := newTestServer(t, Options{CacheDir: dir}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return &orion.Result{AvgLatency: 9}, nil
	})
	if resp := s1.Handle(context.Background(), runReq(t, cfg)); !resp.OK {
		t.Fatalf("first server response: %+v", resp)
	}
	if err := s1.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if runs1.Load() != 1 {
		t.Fatalf("first server ran %d times, want 1", runs1.Load())
	}

	s2, runs2 := newTestServer(t, Options{CacheDir: dir}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return &orion.Result{AvgLatency: 9}, nil
	})
	resp := s2.Handle(context.Background(), runReq(t, cfg))
	if !resp.OK || !resp.Cached {
		t.Fatalf("restarted server response = %+v, want cached hit", resp)
	}
	if runs2.Load() != 0 {
		t.Fatalf("restarted server re-ran %d times, want 0", runs2.Load())
	}
}

func TestHandleNoCacheForcesRecompute(t *testing.T) {
	s, runs := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return &orion.Result{}, nil
	})
	cfg := testConfigJSON(t, 3)
	s.Handle(context.Background(), runReq(t, cfg))
	req := runReq(t, cfg)
	req.NoCache = true
	resp := s.Handle(context.Background(), req)
	if !resp.OK || resp.Cached {
		t.Fatalf("no_cache response = %+v, want ok uncached", resp)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("simulation ran %d times, want 2", got)
	}
}

func TestHandleSingleflightCollapsesIdenticalRequests(t *testing.T) {
	release := make(chan struct{})
	s, runs := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		<-release
		return &orion.Result{AvgLatency: 3}, nil
	})
	cfg := testConfigJSON(t, 4)

	const callers = 8
	var wg sync.WaitGroup
	resps := make([]*Response, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = s.Handle(context.Background(), runReq(t, cfg))
		}(i)
	}
	// Let every caller reach the flight before releasing the run. The
	// sleep only widens the window; correctness does not depend on it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, resp := range resps {
		if !resp.OK || resp.Result == nil || resp.Result.AvgLatency != 3 {
			t.Fatalf("caller %d response = %+v, want the shared result", i, resp)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times for %d identical callers, want 1", got, callers)
	}
}

func TestHandleShedsBeyondAdmissionBound(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 0}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		close(started)
		<-release
		return &orion.Result{}, nil
	})
	done := make(chan *Response, 1)
	go func() { done <- s.Handle(context.Background(), runReq(t, testConfigJSON(t, 5))) }()
	<-started

	// The lone worker is busy and there is no waiting room: a different
	// request must be shed immediately with the typed overload code.
	resp := s.Handle(context.Background(), runReq(t, testConfigJSON(t, 6)))
	if resp.OK || resp.Code != CodeOverloaded {
		t.Fatalf("second request = %+v, want code %q", resp, CodeOverloaded)
	}
	if !strings.Contains(resp.Error, "overloaded") {
		t.Fatalf("overload error %q does not mention overload", resp.Error)
	}
	close(release)
	if first := <-done; !first.OK {
		t.Fatalf("first request = %+v, want ok", first)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed count = %d, want 1", s.Stats().Shed)
	}
}

func TestHandleDeadlineProducesTimeoutCode(t *testing.T) {
	s, _ := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("orion: run aborted: %w", ctx.Err())
	})
	cfg := testConfigJSON(t, 7)
	req := runReq(t, cfg)
	req.DeadlineMs = 30
	resp := s.Handle(context.Background(), req)
	if resp.OK || resp.Code != CodeTimeout {
		t.Fatalf("deadline response = %+v, want code %q", resp, CodeTimeout)
	}

	// Transient outcomes must not be memoized: the next identical
	// request runs again instead of replaying the timeout.
	if got, ok := s.cache.Get(resp.Digest); ok {
		t.Fatalf("timeout outcome was cached: %s", got)
	}
}

func TestHandleMaxDeadlineCapsRequests(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxDeadline: 20 * time.Millisecond}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &orion.Result{}, nil
		}
	})
	req := runReq(t, testConfigJSON(t, 8))
	req.DeadlineMs = int64(time.Hour / time.Millisecond)
	resp := s.Handle(context.Background(), req)
	if resp.Code != CodeTimeout {
		t.Fatalf("capped response = %+v, want code %q", resp, CodeTimeout)
	}
}

func TestHandleClassifiesSentinels(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		wantCode string
		faulted  bool
	}{
		{"saturated", fmt.Errorf("wrap: %w", orion.ErrSaturated), CodeSaturated, false},
		{"deadlock", fmt.Errorf("wrap: %w", orion.ErrDeadlock), CodeDeadlock, false},
		{"invariant", fmt.Errorf("wrap: %w", orion.ErrInvariant), CodeInvariant, false},
		{"faulted deadlock", fmt.Errorf("wrap: %w: %w", orion.ErrFaulted, orion.ErrDeadlock), CodeDeadlock, true},
		{"cancelled", context.Canceled, CodeCancelled, false},
		{"unknown", fmt.Errorf("disk on fire"), CodeInternal, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
				return nil, tc.err
			})
			resp := s.Handle(context.Background(), runReq(t, testConfigJSON(t, int64(100+i))))
			if resp.OK || resp.Code != tc.wantCode || resp.Faulted != tc.faulted {
				t.Fatalf("response = %+v, want code %q faulted %v", resp, tc.wantCode, tc.faulted)
			}
		})
	}
}

// TestHandleBackendDownIsTransient: a run that found every remote
// backend down answers code backend_down with HTTP status 500, and is
// recomputed rather than served from the cache.
func TestHandleBackendDownIsTransient(t *testing.T) {
	s, runs := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return nil, fmt.Errorf("remote: %w: %w", orion.ErrRemote, orion.ErrBackendDown)
	})
	cfg := testConfigJSON(t, 150)
	first := s.Handle(context.Background(), runReq(t, cfg))
	second := s.Handle(context.Background(), runReq(t, cfg))
	if first.Code != CodeBackendDown || second.Code != CodeBackendDown || second.Cached || runs.Load() != 2 {
		t.Fatalf("responses %+v / %+v after %d runs, want two uncached %q", first, second, runs.Load(), CodeBackendDown)
	}
	rec := httptest.NewRecorder()
	s.writeResponse(rec, first)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("HTTP status %d, want 500", rec.Code)
	}
}

func TestHandleDeterministicFailuresAreCached(t *testing.T) {
	s, runs := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return nil, fmt.Errorf("over the knee: %w", orion.ErrSaturated)
	})
	cfg := testConfigJSON(t, 9)
	first := s.Handle(context.Background(), runReq(t, cfg))
	second := s.Handle(context.Background(), runReq(t, cfg))
	if first.Code != CodeSaturated || second.Code != CodeSaturated {
		t.Fatalf("codes %q / %q, want %q", first.Code, second.Code, CodeSaturated)
	}
	if !second.Cached {
		t.Fatalf("second saturated response = %+v, want cached", second)
	}
	if runs.Load() != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1", runs.Load())
	}
}

func TestHandleBadConfigIsBadRequest(t *testing.T) {
	s, _ := newTestServer(t, Options{}, nil)
	resp := s.Handle(context.Background(), runReq(t, []byte(`{"width":-4}`)))
	if resp.OK || resp.Code != CodeBadRequest {
		t.Fatalf("bad config response = %+v, want code %q", resp, CodeBadRequest)
	}
}

func TestHandleSweepPointCodes(t *testing.T) {
	s, _ := newTestServer(t, Options{}, nil)
	s.sweepSim = func(ctx context.Context, cfg orion.Config, rates []float64, progress orion.SweepProgress) ([]*orion.Result, error) {
		// Middle point saturates; the others finish.
		return []*orion.Result{{AvgLatency: 1}, nil, {AvgLatency: 2}},
			&orion.SweepError{Index: []int{1}, Rates: []float64{rates[1]}, Errs: []error{orion.ErrSaturated}}
	}
	req := &Request{Op: OpSweep, Config: testConfigJSON(t, 10), Rates: []float64{0.02, 0.5, 0.04}}
	resp := s.Handle(context.Background(), req)
	if resp.OK {
		t.Fatalf("partial sweep reported ok: %+v", resp)
	}
	if len(resp.Results) != 3 || resp.Results[1] != nil {
		t.Fatalf("results = %+v, want 3 with a nil middle", resp.Results)
	}
	want := []string{"", CodeSaturated, ""}
	if len(resp.PointCodes) != 3 || resp.PointCodes[0] != want[0] || resp.PointCodes[1] != want[1] || resp.PointCodes[2] != want[2] {
		t.Fatalf("point codes = %v, want %v", resp.PointCodes, want)
	}
	// All-deterministic partial failures are cacheable.
	second := s.Handle(context.Background(), req)
	if !second.Cached {
		t.Fatalf("second partial sweep = %+v, want cached", second)
	}
}

// TestHandleSweepCutByDeadlineNotCached: a served sweep whose deadline
// cuts off a point after another point failed saturated reports the
// cut-off point as a timeout and is not cached, so a later request never
// gets the truncated curve back.
func TestHandleSweepCutByDeadlineNotCached(t *testing.T) {
	s, _ := newTestServer(t, Options{RunPoint: func(ctx context.Context, cfg orion.Config, rate float64) (*orion.Result, error) {
		if rate > 0.1 {
			return nil, fmt.Errorf("rate %g: %w", rate, orion.ErrSaturated)
		}
		<-ctx.Done()
		return nil, fmt.Errorf("orion: run aborted: %w", ctx.Err())
	}}, nil)
	req := &Request{Op: OpSweep, Config: testConfigJSON(t, 13), Rates: []float64{0.5, 0.02}, DeadlineMs: 50}
	resp := s.Handle(context.Background(), req)
	if resp.OK || len(resp.Results) != 2 || resp.Results[0] != nil || resp.Results[1] != nil {
		t.Fatalf("cut-off sweep response = %+v, want failed with two nil results", resp)
	}
	if len(resp.PointCodes) != 2 || resp.PointCodes[0] != CodeSaturated || resp.PointCodes[1] != CodeTimeout {
		t.Fatalf("point codes = %v, want [%s %s]", resp.PointCodes, CodeSaturated, CodeTimeout)
	}
	if got, ok := s.cache.Get(resp.Digest); ok {
		t.Fatalf("cut-off sweep was cached: %s", got)
	}
	if second := s.Handle(context.Background(), req); second.Cached {
		t.Fatalf("second cut-off sweep = %+v, want recomputed", second)
	}
}

func TestHandleAsyncJobLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Options{}, nil)
	s.sweepSim = func(ctx context.Context, cfg orion.Config, rates []float64, progress orion.SweepProgress) ([]*orion.Result, error) {
		return []*orion.Result{{AvgLatency: 5}}, nil
	}
	req := &Request{Op: OpSweep, Config: testConfigJSON(t, 11), Rates: []float64{0.02}, Async: true}
	sub := s.Handle(context.Background(), req)
	if !sub.OK || sub.JobID == "" || sub.Status != JobQueued {
		t.Fatalf("submit response = %+v, want queued job", sub)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		poll := s.Handle(context.Background(), &Request{Op: OpJob, Job: sub.JobID})
		if poll.Status == JobDone {
			if !poll.OK || len(poll.Results) != 1 || poll.Results[0].AvgLatency != 5 {
				t.Fatalf("done job = %+v, want the sweep result", poll)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed: %+v", sub.JobID, poll)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := s.Handle(context.Background(), &Request{Op: OpJob, Job: "job-404"}); resp.Code != CodeNotFound {
		t.Fatalf("unknown job response = %+v, want %q", resp, CodeNotFound)
	}
}

func TestDrainStopsAdmissionAndSettles(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s, _ := newTestServer(t, Options{DrainTimeout: 5 * time.Second}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		close(started)
		<-release
		return &orion.Result{AvgLatency: 11}, nil
	})
	inflight := make(chan *Response, 1)
	go func() { inflight <- s.Handle(context.Background(), runReq(t, testConfigJSON(t, 12))) }()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()
	// Drain must not admit new work while the in-flight request settles.
	time.Sleep(20 * time.Millisecond)
	if resp := s.Handle(context.Background(), runReq(t, testConfigJSON(t, 13))); resp.Code != CodeDraining {
		t.Fatalf("request during drain = %+v, want code %q", resp, CodeDraining)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain finished before in-flight work settled: %v", err)
	default:
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp := <-inflight; !resp.OK || resp.Result.AvgLatency != 11 {
		t.Fatalf("in-flight response after drain = %+v, want the result", resp)
	}
}

func TestDrainDeadlineCancelsStuckWork(t *testing.T) {
	s, _ := newTestServer(t, Options{DrainTimeout: 50 * time.Millisecond}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		<-ctx.Done() // never finishes on its own
		return nil, ctx.Err()
	})
	inflight := make(chan *Response, 1)
	go func() { inflight <- s.Handle(context.Background(), runReq(t, testConfigJSON(t, 14))) }()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drain of stuck work took %v", took)
	}
	if resp := <-inflight; resp.Code != CodeCancelled {
		t.Fatalf("stuck request response = %+v, want code %q", resp, CodeCancelled)
	}
}

func TestHandleCallerDeadlineDetachesFromExecution(t *testing.T) {
	release := make(chan struct{})
	s, runs := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		<-release
		return &orion.Result{AvgLatency: 21}, nil
	})
	cfg := testConfigJSON(t, 15)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	resp := s.Handle(ctx, runReq(t, cfg))
	if resp.Code != CodeTimeout && resp.Code != CodeCancelled {
		t.Fatalf("impatient caller response = %+v, want timeout/cancelled", resp)
	}
	// The execution keeps running and still lands in the cache.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := s.Handle(context.Background(), runReq(t, cfg))
		if r.OK && r.Cached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned execution never reached the cache: %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if runs.Load() != 1 {
		t.Fatalf("simulation ran %d times, want 1 (abandoned execution reused)", runs.Load())
	}
}

// TestServeEndToEnd exercises the real engine through the service layer:
// a run, its cache hit, and a sweep whose second serving is also a hit.
func TestServeEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, Options{}, nil)
	cfg := testConfigJSON(t, 16)

	run1 := s.Handle(context.Background(), runReq(t, cfg))
	if !run1.OK || run1.Result == nil || run1.Result.AvgLatency <= 0 {
		t.Fatalf("run = %+v, want a real result", run1)
	}
	run2 := s.Handle(context.Background(), runReq(t, cfg))
	if !run2.Cached {
		t.Fatalf("second run = %+v, want cached", run2)
	}
	a, _ := json.Marshal(run1.Result)
	b, _ := json.Marshal(run2.Result)
	if string(a) != string(b) {
		t.Fatalf("cached result differs:\n%s\n%s", a, b)
	}

	sweep := &Request{Op: OpSweep, Config: cfg, Rates: []float64{0.02, 0.04}}
	sw1 := s.Handle(context.Background(), sweep)
	if !sw1.OK || len(sw1.Results) != 2 || sw1.Results[0] == nil || sw1.Results[1] == nil {
		t.Fatalf("sweep = %+v, want 2 results", sw1)
	}
	sw2 := s.Handle(context.Background(), sweep)
	if !sw2.Cached {
		t.Fatalf("second sweep = %+v, want cached", sw2)
	}
}

func TestServeLinesRoundTrip(t *testing.T) {
	s, _ := newTestServer(t, Options{}, func(ctx context.Context, cfg orion.Config) (*orion.Result, error) {
		return &orion.Result{AvgLatency: 4}, nil
	})
	cfg := testConfigJSON(t, 17)
	var in strings.Builder
	fmt.Fprintf(&in, `{"id":"a","op":"run","config":%s}`+"\n", cfg)
	in.WriteString("not json at all\n")
	fmt.Fprintf(&in, `{"id":"b","op":"run","config":%s}`+"\n", cfg)

	var out strings.Builder
	if err := s.ServeLines(context.Background(), strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d response lines, want 3:\n%s", len(lines), out.String())
	}
	byID := map[string]*Response{}
	badRequests := 0
	for _, line := range lines {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("response line %q: %v", line, err)
		}
		if resp.Code == CodeBadRequest {
			badRequests++
			continue
		}
		r := resp
		byID[resp.ID] = &r
	}
	if badRequests != 1 {
		t.Fatalf("%d bad_request responses, want 1", badRequests)
	}
	for _, id := range []string{"a", "b"} {
		resp := byID[id]
		if resp == nil || !resp.OK || resp.Result == nil {
			t.Fatalf("response for %q = %+v, want ok", id, resp)
		}
	}
}
