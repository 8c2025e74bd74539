package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"orion"
	"orion/internal/queue"
	"orion/internal/remote/proxytest"
	"orion/internal/serve"
)

// chaosConfig is the fast configuration every chaos test sweeps: small
// enough that a point runs in milliseconds, real enough that results
// exercise the full engine.
func chaosConfig() orion.Config {
	cfg := orion.OnChip4x4(orion.VC16(), 0.02)
	cfg.Sim.SamplePackets = 40
	return cfg
}

var chaosRates = []float64{0.01, 0.02, 0.03, 0.04}

// newBackend starts a real orion-serve instance and returns its handler.
func newBackend(t *testing.T) http.Handler {
	t.Helper()
	s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { _ = s.Drain() })
	return s.Handler()
}

// cleanBaseline computes the local ground truth the remote sweeps must
// reproduce byte for byte.
func cleanBaseline(t *testing.T) []byte {
	t.Helper()
	results, err := orion.SweepContext(context.Background(), chaosConfig(), chaosRates)
	if err != nil {
		t.Fatalf("clean local sweep: %v", err)
	}
	return mustJSON(t, results)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// remoteSweep runs the full distributed pipeline — queue journal, lease
// workers, remote dispatch — and returns the merged results plus the
// settled queue state.
func remoteSweep(t *testing.T, pool *Pool) ([]*orion.Result, *queue.State) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	results, err := orion.SweepJournaledContext(context.Background(), chaosConfig(), chaosRates, orion.SweepJournalOptions{
		Path:     path,
		InFlight: 2,
		Lease:    5 * time.Second,
		Run:      pool.RunPoint,
	})
	if err != nil {
		t.Fatalf("SweepJournaledContext: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading queue journal: %v", err)
	}
	st, err := queue.DecodeState(data)
	if err != nil {
		t.Fatalf("decoding queue state: %v", err)
	}
	return results, st
}

// TestChaosMatrixByteIdentical drives a real distributed sweep through a
// flaky proxy for each injected network fault and asserts the merged
// results are byte-identical to a clean local sweep, with exactly one
// committed result per point.
func TestChaosMatrixByteIdentical(t *testing.T) {
	want := cleanBaseline(t)
	cases := []struct {
		name   string
		script []proxytest.Mode
	}{
		{"drop", []proxytest.Mode{proxytest.Drop, proxytest.Drop}},
		{"delay-past-deadline", []proxytest.Mode{proxytest.Delay}},
		{"reset", []proxytest.Mode{proxytest.Reset, proxytest.Reset}},
		{"truncated-body", []proxytest.Mode{proxytest.Truncate, proxytest.Truncate}},
		{"500-storm", []proxytest.Mode{proxytest.Err500, proxytest.Err500, proxytest.Err500, proxytest.Err500}},
		{"429-storm", []proxytest.Mode{proxytest.Storm429, proxytest.Storm429, proxytest.Storm429}},
		{"mixed", []proxytest.Mode{proxytest.Drop, proxytest.Reset, proxytest.Truncate, proxytest.Err500, proxytest.Storm429}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proxy := proxytest.New(newBackend(t), tc.script...)
			proxy.DelayFor = 500 * time.Millisecond
			ts := httptest.NewServer(proxy)
			defer ts.Close()

			pool, err := NewPool(Options{
				Backends:      []string{ts.URL},
				PerTryTimeout: 250 * time.Millisecond,
				Retries:       4,
				TripAfter:     10, // faults outnumber the trip threshold on purpose
				CoolDown:      20 * time.Millisecond,
				RetryBase:     2 * time.Millisecond,
				RetryMax:      20 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("NewPool: %v", err)
			}
			results, st := remoteSweep(t, pool)
			if got := mustJSON(t, results); string(got) != string(want) {
				t.Fatalf("merged results diverge from the clean local sweep under %s\n got: %s\nwant: %s", tc.name, got, want)
			}
			pending, claimed, done := st.Counts()
			if pending != 0 || claimed != 0 || done != len(chaosRates) {
				t.Fatalf("queue after sweep: %d pending, %d claimed, %d done; want 0/0/%d",
					pending, claimed, done, len(chaosRates))
			}
			if proxy.Calls() == 0 {
				t.Fatal("proxy saw no traffic — the sweep never dispatched remotely")
			}
		})
	}
}

// TestRemoteRedispatchToSecondBackend pins transparent re-dispatch: with
// one permanently broken backend and one healthy one, every point
// settles remotely (no local fallback) and results stay identical.
func TestRemoteRedispatchToSecondBackend(t *testing.T) {
	want := cleanBaseline(t)
	var brokenCalls atomic.Int64
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		brokenCalls.Add(1)
		http.Error(w, "permanently broken (injected)", http.StatusInternalServerError)
	}))
	defer broken.Close()
	healthy := httptest.NewServer(newBackend(t))
	defer healthy.Close()

	pool, err := NewPool(Options{
		Backends:        []string{broken.URL, healthy.URL},
		PerTryTimeout:   2 * time.Second,
		Retries:         4,
		TripAfter:       3,
		CoolDown:        time.Hour, // no probes during the test
		RetryBase:       time.Millisecond,
		RetryMax:        5 * time.Millisecond,
		NoLocalFallback: true, // every point MUST settle remotely
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	results, st := remoteSweep(t, pool)
	if got := mustJSON(t, results); string(got) != string(want) {
		t.Fatalf("merged results diverge with a broken backend in the pool\n got: %s\nwant: %s", got, want)
	}
	if _, _, done := st.Counts(); done != len(chaosRates) {
		t.Fatalf("queue settled %d points, want %d", done, len(chaosRates))
	}
	stats := pool.Stats()
	if stats.Remote != len(chaosRates) {
		t.Fatalf("remote-settled points = %d, want %d (stats %+v)", stats.Remote, len(chaosRates), stats)
	}
	// The breaker bounds the dead backend's cost: it trips after
	// TripAfter consecutive failures and (with an hour cool-down) is
	// never probed again. A couple of in-flight tries may land before
	// the trip is visible to the second worker.
	if calls := brokenCalls.Load(); calls > 3+2 {
		t.Fatalf("broken backend absorbed %d calls, want ≤ %d (breaker did not bound the cost)", calls, 3+2)
	}
	if stats.Trips == 0 {
		t.Fatal("breaker never tripped despite a permanently broken backend")
	}
}

// TestAllBackendsDownFallsBackToLocal: when every backend is
// open-circuit, points degrade to local execution and the sweep still
// completes identically.
func TestAllBackendsDownFallsBackToLocal(t *testing.T) {
	want := cleanBaseline(t)
	// A listener that is already closed: every dial is refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	pool, err := NewPool(Options{
		Backends:      []string{deadURL},
		PerTryTimeout: 250 * time.Millisecond,
		Retries:       2,
		TripAfter:     1,
		CoolDown:      time.Hour,
		RetryBase:     time.Millisecond,
		RetryMax:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	results, st := remoteSweep(t, pool)
	if got := mustJSON(t, results); string(got) != string(want) {
		t.Fatalf("local-fallback results diverge\n got: %s\nwant: %s", got, want)
	}
	if _, _, done := st.Counts(); done != len(chaosRates) {
		t.Fatalf("queue settled %d points, want %d", done, len(chaosRates))
	}
	stats := pool.Stats()
	if stats.Local == 0 {
		t.Fatalf("no local fallbacks recorded with every backend dead (stats %+v)", stats)
	}
	if stats.Remote != 0 {
		t.Fatalf("%d points claim remote settlement against a dead backend (stats %+v)", stats.Remote, stats)
	}
}

// TestNoLocalFallbackSurfacesBackendDown: with fallback disabled and a
// dead fleet, RunPoint fails typed and a queue worker counts it.
func TestNoLocalFallbackSurfacesBackendDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	pool, err := NewPool(Options{
		Backends:        []string{deadURL},
		PerTryTimeout:   250 * time.Millisecond,
		Retries:         3,
		TripAfter:       1,
		CoolDown:        time.Hour,
		RetryBase:       time.Millisecond,
		RetryMax:        5 * time.Millisecond,
		NoLocalFallback: true,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	_, rerr := pool.RunPoint(context.Background(), chaosConfig(), 0.02)
	if rerr == nil {
		t.Fatal("RunPoint succeeded against a dead fleet with fallback disabled")
	}
	if !errors.Is(rerr, orion.ErrRemote) || !errors.Is(rerr, orion.ErrBackendDown) {
		t.Fatalf("error %v does not wrap ErrRemote and ErrBackendDown", rerr)
	}

	// Through a worker: the failure commits as transient (re-run on
	// resume) and surfaces in WorkerStats.BackendDown.
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	cfg := chaosConfig()
	digest, err := orion.SweepConfigDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := queue.Create(path, queue.Header{ConfigDigest: digest, Rates: chaosRates}, true)
	if err != nil {
		t.Fatalf("creating the queue journal: %v", err)
	}
	qf.Close()
	var stats orion.WorkerStats
	_, werr := orion.SweepJournaledContext(context.Background(), cfg, chaosRates, orion.SweepJournalOptions{
		Path:     path,
		InFlight: 1,
		Lease:    5 * time.Second,
		Run:      pool.RunPoint,
		Worker:   &stats,
	})
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if stats.BackendDown != len(chaosRates) {
		t.Fatalf("WorkerStats.BackendDown = %d, want %d (stats %+v)", stats.BackendDown, len(chaosRates), stats)
	}
	status, err := orion.JournalStatus(path)
	if err != nil {
		t.Fatalf("JournalStatus: %v", err)
	}
	for _, p := range status {
		if p.State != "failed" {
			t.Fatalf("point %d state %q, want failed", p.Index, p.State)
		}
	}
}

// TestNoLocalFallbackJournaledMergesBackendDown: a journaled sweep
// whose points all find the fleet down merges to an error wrapping
// ErrBackendDown and ErrRemote, as the live point error does.
func TestNoLocalFallbackJournaledMergesBackendDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	pool, err := NewPool(Options{
		Backends:        []string{deadURL},
		PerTryTimeout:   250 * time.Millisecond,
		TripAfter:       1,
		CoolDown:        time.Hour,
		RetryBase:       time.Millisecond,
		RetryMax:        5 * time.Millisecond,
		NoLocalFallback: true,
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	_, err = orion.SweepJournaledContext(context.Background(), chaosConfig(), chaosRates, orion.SweepJournalOptions{
		Path:     path,
		InFlight: 2,
		Lease:    5 * time.Second,
		Run:      pool.RunPoint,
	})
	if !errors.Is(err, orion.ErrBackendDown) || !errors.Is(err, orion.ErrRemote) {
		t.Fatalf("merged journaled sweep: got %v, want ErrBackendDown and ErrRemote", err)
	}

	// The same sweep as orion-sweep -distributed runs it: a coordinator
	// that commits nothing merges what a worker committed, so every
	// failure is rebuilt from the journal's outcome code.
	coordPath := filepath.Join(t.TempDir(), "coord.jsonl")
	ready := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		<-ready
		var stats orion.WorkerStats
		_, err := orion.SweepJournaledContext(context.Background(), chaosConfig(), chaosRates, orion.SweepJournalOptions{
			Path: coordPath, InFlight: 1, Lease: 5 * time.Second, Run: pool.RunPoint, Worker: &stats,
		})
		werr <- err
	}()
	var opened atomic.Bool
	open := func() {
		if opened.CompareAndSwap(false, true) {
			close(ready)
		}
	}
	_, err = orion.SweepJournaledContext(context.Background(), chaosConfig(), chaosRates, orion.SweepJournalOptions{
		Path:     coordPath,
		InFlight: -1,
		Lease:    5 * time.Second,
		Progress: func(int, int) { open() },
	})
	open()
	if e := <-werr; e != nil {
		t.Fatalf("worker: %v", e)
	}
	if !errors.Is(err, orion.ErrBackendDown) || !errors.Is(err, orion.ErrRemote) {
		t.Fatalf("coordinator merge: got %v, want ErrBackendDown and ErrRemote", err)
	}
}

// TestRemoteDeterministicOutcomeIsTyped: a backend reporting saturation
// must fail the point with the same sentinel a local run raises — no
// retry, no fallback masking a real simulation outcome.
func TestRemoteDeterministicOutcomeIsTyped(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&serve.Response{OK: false, Code: serve.CodeSaturated, Error: "saturated (remote)"})
	}))
	defer backend.Close()

	localRuns := 0
	pool, err := NewPool(Options{
		Backends:      []string{backend.URL},
		PerTryTimeout: time.Second,
		RetryBase:     time.Millisecond,
		Local: func(ctx context.Context, cfg orion.Config, rate float64) (*orion.Result, error) {
			localRuns++
			return nil, errors.New("local fallback must not run")
		},
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	_, rerr := pool.RunPoint(context.Background(), chaosConfig(), 0.3)
	if !errors.Is(rerr, orion.ErrSaturated) {
		t.Fatalf("remote saturation produced %v, want ErrSaturated", rerr)
	}
	if errors.Is(rerr, orion.ErrRemote) {
		t.Fatalf("simulation outcome %v wrongly wraps ErrRemote", rerr)
	}
	if localRuns != 0 {
		t.Fatal("deterministic remote failure fell back to local execution")
	}
}

// TestRemoteCacheHitsAcrossSweeps: folding the rate into the config
// digest gives the backend per-point cache keys, so a repeated sweep is
// answered from its cache.
func TestRemoteCacheHitsAcrossSweeps(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 2, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pool, err := NewPool(Options{Backends: []string{ts.URL}, PerTryTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	first, _ := remoteSweep(t, pool)
	second, _ := remoteSweep(t, pool)
	if string(mustJSON(t, first)) != string(mustJSON(t, second)) {
		t.Fatal("repeated remote sweeps disagree")
	}
	if hits := s.Stats().Cache.Hits; hits < uint64(len(chaosRates)) {
		t.Fatalf("backend cache hits = %d after a repeated sweep, want ≥ %d", hits, len(chaosRates))
	}
}
