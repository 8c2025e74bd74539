package orion

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orion/internal/queue"
)

// createSweepQueue writes a fresh queue journal for workers to fill.
func createSweepQueue(t *testing.T, path string, cfg Config, rates []float64) {
	t.Helper()
	qf, err := openSweepQueue(cfg, rates, SweepJournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	qf.Close()
}

// sweepWorker runs one worker of the queue journal at opts.Path, one
// point at a time, and returns its stats.
func sweepWorker(ctx context.Context, cfg Config, rates []float64, opts SweepJournalOptions) (WorkerStats, error) {
	var stats WorkerStats
	opts.Worker, opts.InFlight = &stats, 1
	_, err := SweepJournaledContext(ctx, cfg, rates, opts)
	return stats, err
}

// mergeQueue is a coordinator that runs no points: it rejoins the queue
// journal at path and merges it once every point is settled.
func mergeQueue(ctx context.Context, cfg Config, rates []float64, path string) ([]*Result, error) {
	return SweepJournaledContext(ctx, cfg, rates, SweepJournalOptions{
		Path: path, Resume: true, InFlight: -1, poll: 5 * time.Millisecond,
	})
}

// runCoordinated runs a sweep as orion-sweep -distributed does: a
// coordinator creates the journal at path and merges it, and one worker
// joins once the journal is open and runs every point with run. The
// coordinator commits nothing itself, so its merge decodes every payload
// and rebuilds every failure from its outcome code.
func runCoordinated(t *testing.T, cfg Config, rates []float64, path string, run PointRunner) ([]*Result, error) {
	t.Helper()
	ready := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(ready) }) }
	werr := make(chan error, 1)
	go func() {
		<-ready
		_, err := sweepWorker(context.Background(), cfg, rates, SweepJournalOptions{Path: path, Run: run})
		werr <- err
	}()
	results, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{
		Path: path, InFlight: -1, poll: 5 * time.Millisecond,
		Progress: func(int, int) { open() },
	})
	open()
	if e := <-werr; e != nil {
		t.Fatalf("worker: %v", e)
	}
	return results, err
}

// TestSweepDistributedMatchesSweep is the core distributed-correctness
// contract: in-process workers pulling from the shared queue journal
// produce results bit-identical to a sequential Sweep.
func TestSweepDistributedMatchesSweep(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05, 0.08, 0.11}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	dist, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{
		Path: path, InFlight: 3, Lease: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if dist[i] == nil {
			t.Fatalf("rate %g: nil distributed result", rates[i])
		}
		if fingerprint(clean[i]) != fingerprint(dist[i]) {
			t.Errorf("rate %g: distributed result differs from sequential sweep", rates[i])
		}
	}
	if n, err := settledPoints(path); err != nil || n != len(rates) {
		t.Fatalf("settled points on queue journal = %d, %v; want %d, nil", n, err, len(rates))
	}
}

// TestSweepDistributedChaos is the in-process chaos test: four workers,
// two of which die SIGKILL-style (no drop, no commit) after claiming a
// point. Their leases expire, the survivors steal the abandoned points,
// and the merged results must still be bit-identical to a sequential
// Sweep. Run at two different crash points to vary which points get
// abandoned.
func TestSweepDistributedChaos(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashAfter := range []int{1, 2} {
		t.Run(strings.Replace("crashAfter=N", "N", string(rune('0'+crashAfter)), 1), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.wal")
			createSweepQueue(t, path, cfg, rates)
			const lease = 300 * time.Millisecond
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for w := 0; w < 4; w++ {
				opts := SweepJournalOptions{Path: path, Lease: lease, workerID: string(rune('a' + w))}
				if w < 2 {
					opts.dieAfterClaims = crashAfter
				}
				wg.Add(1)
				go func(w int, opts SweepJournalOptions) {
					defer wg.Done()
					_, errs[w] = sweepWorker(context.Background(), cfg, rates, opts)
				}(w, opts)
			}
			wg.Wait()
			for w := 0; w < 2; w++ {
				// A chaos worker normally dies mid-claim; under heavy load
				// (e.g. the race detector) it can lose every claim race and
				// exit cleanly when the survivors drain the queue. Both are
				// fine — anything else is a real failure.
				if errs[w] != nil && !errors.Is(errs[w], errWorkerCrashed) {
					t.Fatalf("chaos worker %d: got %v, want simulated crash or clean exit", w, errs[w])
				}
			}
			for w := 2; w < 4; w++ {
				if errs[w] != nil {
					t.Fatalf("surviving worker %d failed: %v", w, errs[w])
				}
			}
			// The survivors finished the queue; the merge must equal the
			// sequential sweep bit for bit.
			results, err := mergeQueue(context.Background(), cfg, rates, path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rates {
				if results[i] == nil {
					t.Fatalf("rate %g: nil result after chaos", rates[i])
				}
				if fingerprint(clean[i]) != fingerprint(results[i]) {
					t.Errorf("rate %g: chaos-merged result differs from sequential sweep", rates[i])
				}
			}
		})
	}
}

// TestSweepWorkerLeaseLost pauses a worker between its claim and its
// point run for longer than its lease (the SIGSTOP signature), lets a
// rival steal and commit the point, and requires the victim to discard
// its own result — counted in WorkerStats.LeasesLost, with the rival's
// commit the only one that takes effect.
func TestSweepWorkerLeaseLost(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	createSweepQueue(t, path, cfg, rates)

	rivalDone := make(chan WorkerStats, 1)
	victimOpts := SweepJournalOptions{
		Path: path, workerID: "victim", Lease: 50 * time.Millisecond,
		holdPoint: func(int) {
			// Paused past the lease. Start the rival only now, so the
			// claim order is deterministic: victim first, rival steals.
			go func() {
				stats, err := sweepWorker(context.Background(), cfg, rates, SweepJournalOptions{
					Path: path, workerID: "rival", Lease: time.Minute, poll: 5 * time.Millisecond,
				})
				if err != nil {
					t.Errorf("rival: %v", err)
				}
				rivalDone <- stats
			}()
			time.Sleep(250 * time.Millisecond)
		},
	}
	stats, err := sweepWorker(context.Background(), cfg, rates, victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	rival := <-rivalDone
	if stats.LeasesLost != 1 || stats.Commits != 0 {
		t.Fatalf("victim stats = %+v, want exactly one lost lease and no commits", stats)
	}
	if rival.Steals != 1 || rival.Commits != 1 {
		t.Fatalf("rival stats = %+v, want one steal and one commit", rival)
	}
	// And the committed result is intact and usable.
	results, err := mergeQueue(context.Background(), cfg, rates, path)
	if err != nil || results[0] == nil {
		t.Fatalf("merge after lease loss: %v, %v", results, err)
	}
}

// TestDistributedTypedErrors covers the rejection taxonomy end to end:
// a worker joining a queue for a different configuration or rate list
// (ErrStaleJournal, also ErrJournal), a malformed queue file
// (ErrJournal), a journaled-sweep resume digest mismatch
// (ErrStaleJournal), and a direct lease-loss commit (ErrLeaseLost).
func TestDistributedTypedErrors(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.wal")
	createSweepQueue(t, path, cfg, rates)

	other := cfg
	other.Traffic.Seed++
	if _, err := sweepWorker(context.Background(), other, rates, SweepJournalOptions{Path: path}); !errors.Is(err, ErrStaleJournal) || !errors.Is(err, ErrJournal) {
		t.Fatalf("config mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}
	if _, err := sweepWorker(context.Background(), cfg, []float64{0.5}, SweepJournalOptions{Path: path}); !errors.Is(err, ErrStaleJournal) {
		t.Fatalf("rate-list mismatch: got %v, want ErrStaleJournal", err)
	}
	if _, err := openSweepQueue(other, rates, SweepJournalOptions{Path: path, Resume: true}); !errors.Is(err, ErrStaleJournal) {
		t.Fatalf("resume with different config: got %v, want ErrStaleJournal", err)
	}

	// Schema-invalid interior record: ErrJournal for workers, status and
	// point counting alike.
	bad := filepath.Join(dir, "bad.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data) + `{"t":"claim","index":99,"w":"x","at_ms":1,"lease_ms":1}` + "\n" +
		`{"t":"reset","index":0}` + "\n"
	if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweepWorker(context.Background(), cfg, rates, SweepJournalOptions{Path: bad}); !errors.Is(err, ErrJournal) {
		t.Fatalf("malformed queue: got %v, want ErrJournal", err)
	}
	if _, err := JournalStatus(bad); !errors.Is(err, ErrJournal) {
		t.Fatalf("JournalStatus on malformed queue: got %v, want ErrJournal", err)
	}

	// A journaled sweep's resume digest mismatch carries the same stale
	// sentinel.
	if _, err := SweepJournaledContext(context.Background(), other, rates, SweepJournalOptions{Path: path, Resume: true}); !errors.Is(err, ErrStaleJournal) || !errors.Is(err, ErrJournal) {
		t.Fatalf("journaled digest mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}

	// Direct lease loss through the queue layer, with orion's sentinel.
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := queue.Open(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	if won, _, err := qf.TryClaim(0, "w1", time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	time.Sleep(20 * time.Millisecond)
	if won, _, err := qf.TryClaim(0, "w2", time.Minute); err != nil || !won {
		t.Fatalf("steal: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", []byte(`{"index":0}`), true); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale commit: got %v, want ErrLeaseLost", err)
	}
}

// TestJournalStatus covers the operator-facing per-point report.
func TestJournalStatus(t *testing.T) {
	cfg := fastConfig(0)
	dir := t.TempDir()

	// A journaled sweep: one success and one deterministic failure.
	// MaxCycles tight enough that the 0.01 point cannot inject its
	// samples (see TestSweepJournaledResumeKeepsDeterministicFailures).
	satCfg := cfg
	satCfg.Sim.MaxCycles = 700
	sat := filepath.Join(dir, "sat.jsonl")
	if _, err := SweepJournaledContext(context.Background(), satCfg, []float64{0.2, 0.01}, SweepJournalOptions{Path: sat}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want saturation, got %v", err)
	}
	st, err := JournalStatus(sat)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0].State != "done" || st[1].State != "failed" || st[1].Err == "" {
		t.Fatalf("journaled sweep status = %+v", st)
	}

	// By hand: one committed, one claimed with an expired lease, one
	// pending.
	rates := []float64{0.02, 0.05, 0.08}
	v2 := filepath.Join(dir, "v2.wal")
	createSweepQueue(t, v2, cfg, rates)
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := queue.Open(v2, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	if won, _, err := qf.TryClaim(0, "w1", time.Minute); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", []byte(`{"index":0,"result":{"AvgLatency":1}}`), true); err != nil {
		t.Fatal(err)
	}
	if won, _, err := qf.TryClaim(1, "w2", time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	time.Sleep(10 * time.Millisecond)
	st, err = JournalStatus(v2)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 3 {
		t.Fatalf("v2 status has %d points, want 3", len(st))
	}
	if st[0].State != "done" || st[0].Rate != 0.02 {
		t.Fatalf("point 0 = %+v, want done", st[0])
	}
	if st[1].State != "claimed" || st[1].Worker != "w2" || !st[1].LeaseExpired {
		t.Fatalf("point 1 = %+v, want claimed by w2 with expired lease", st[1])
	}
	if st[2].State != "pending" {
		t.Fatalf("point 2 = %+v, want pending", st[2])
	}

	// Missing journal: empty report, no error.
	if st, err := JournalStatus(filepath.Join(dir, "nope.wal")); err != nil || len(st) != 0 {
		t.Fatalf("missing journal: %v, %v", st, err)
	}
}

// TestSweepDistributedResumeReopensTransients: a queue whose committed
// points include a transient failure (cancelled mid-run) must re-run
// exactly those points on resume and settle them.
func TestSweepDistributedResumeReopensTransients(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	createSweepQueue(t, path, cfg, rates)
	// Hand-commit a transient failure for point 0 and a real result for
	// point 1.
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := queue.Open(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if won, _, err := qf.TryClaim(0, "w1", time.Minute); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", []byte(`{"index":0,"rate":0.02,"err":"point timeout","err_kind":"timeout"}`), false); err != nil {
		t.Fatal(err)
	}
	qf.Close()

	results, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{
		Path: path, InFlight: 2, Lease: time.Second, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if results[i] == nil {
			t.Fatalf("rate %g: nil result after resume", rates[i])
		}
		if fingerprint(clean[i]) != fingerprint(results[i]) {
			t.Errorf("rate %g: resumed result differs from sequential sweep", rates[i])
		}
	}
}

// TestSweepWorkerCancelDropsClaim: a cancelled worker releases its claim
// immediately (a drop record), so the point is re-claimable without a
// lease-expiry wait.
func TestSweepWorkerCancelDropsClaim(t *testing.T) {
	cfg := fastConfig(0)
	// A long point: lots of samples so cancellation lands mid-run.
	cfg.Sim.SamplePackets = 200000
	rates := []float64{0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	createSweepQueue(t, path, cfg, rates)
	ctx, cancel := context.WithCancel(context.Background())
	claimed := make(chan struct{})
	opts := SweepJournalOptions{
		Path: path, workerID: "w1", Lease: time.Minute,
		holdPoint: func(int) { close(claimed) },
	}
	done := make(chan error, 1)
	go func() {
		_, err := sweepWorker(ctx, cfg, rates, opts)
		done <- err
	}()
	<-claimed
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled worker: got %v, want context.Canceled", err)
	}
	st, err := JournalStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].State != "pending" {
		t.Fatalf("point after cancel = %+v, want pending (claim dropped)", st[0])
	}
}

// TestSweepDistributedCustomRunner: SweepJournalOptions.Run replaces
// the in-process point executor for every worker — the seam the remote
// dispatch layer plugs into — without changing what gets committed.
func TestSweepDistributedCustomRunner(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05, 0.08}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	path := filepath.Join(t.TempDir(), "sweep.wal")
	dist, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{
		Path: path, InFlight: 2, Lease: 2 * time.Second,
		Run: func(ctx context.Context, cfg Config, rate float64) (*Result, error) {
			calls.Add(1)
			return RunPoint(ctx, cfg, rate)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(rates)) {
		t.Fatalf("custom runner ran %d points, want %d", got, len(rates))
	}
	for i := range rates {
		if dist[i] == nil || fingerprint(clean[i]) != fingerprint(dist[i]) {
			t.Errorf("rate %g: custom-runner result differs from sequential sweep", rates[i])
		}
	}
}

// TestSweepWorkerCountsBackendDown: a runner failing with ErrBackendDown
// (every remote backend circuit-broken, local fallback disabled) is
// counted in WorkerStats.BackendDown, and the points settle as
// non-deterministic failures — visible in the status report and re-run
// on resume rather than burned.
func TestSweepWorkerCountsBackendDown(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05}
	path := filepath.Join(t.TempDir(), "sweep.wal")
	createSweepQueue(t, path, cfg, rates)
	down := fmt.Errorf("dispatching rate: %w", ErrBackendDown)
	stats, err := sweepWorker(context.Background(), cfg, rates, SweepJournalOptions{
		Path: path, workerID: "w1", Lease: time.Second,
		Run: func(context.Context, Config, float64) (*Result, error) { return nil, down },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackendDown != len(rates) || stats.Commits != len(rates) {
		t.Fatalf("stats = %+v, want %d backend-down failures all committed", stats, len(rates))
	}
	st, err := JournalStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range st {
		if p.State != "failed" || !strings.Contains(p.Err, "backend") {
			t.Fatalf("point %d after backend-down sweep = %+v, want failed with backend error", i, p)
		}
	}
	// backend_down is transient: a resume with a healthy runner re-runs
	// exactly these points and settles them with real results.
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	results, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{
		Path: path, InFlight: 2, Lease: time.Second, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if results[i] == nil || fingerprint(clean[i]) != fingerprint(results[i]) {
			t.Errorf("rate %g: post-recovery result differs from sequential sweep", rates[i])
		}
	}
}
