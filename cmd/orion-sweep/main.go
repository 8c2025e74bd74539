// Command orion-sweep sweeps injection rates for one router configuration
// and prints the latency/power/throughput curve plus the saturation
// throughput (the paper's definition: the rate at which latency exceeds
// twice the zero-load latency, Section 4.1). Rate points run concurrently.
//
// Examples:
//
//	# Latency/power curve for the paper's VC64 on-chip router:
//	orion-sweep -preset vc64
//
//	# Custom sweep:
//	orion-sweep -router wormhole -depth 64 -flits 256 \
//	            -rates 0.02,0.06,0.10,0.14,0.18
//
//	# Crash-safe sweep: journal each completed point, resume after a kill:
//	orion-sweep -preset vc64 -journal sweep.jsonl -resume -csv curve.csv
//
//	# Distributed sweep: 4 worker processes share one work-queue journal;
//	# killed workers lose their leases and survivors re-run their points:
//	orion-sweep -preset vc64 -distributed 4 -journal sweep.wal -csv curve.csv
//
//	# Extra workers may join the same queue from other machines on a
//	# shared filesystem (same config flags, same rates):
//	orion-sweep -preset vc64 -worker -journal sweep.wal
//
//	# Inspect a crashed or in-flight sweep:
//	orion-sweep -status -journal sweep.wal
//
//	# Remote backends: dispatch the points to orion-serve instances over
//	# HTTP (circuit breakers, retries, local fallback when all are down):
//	orion-sweep -preset vc64 -backends http://hostb:9090,http://hostc:9090 -csv curve.csv
//
// SIGINT/SIGTERM cancel the in-flight points, flush the journal and
// partial results (table and CSV), and exit with status 128+signal.
// A journaled sweep restarted with -resume skips every point the journal
// already records as completed; points the killed process still held
// run once their leases expire (at most one -lease later).
//
// Exit status: 0 success; 1 errors; 2 bad flags or an invalid
// configuration; 128+signal when interrupted. With
// -status: 0 healthy, 3 when any journal point failed, 4 when any
// worker lease has expired (and no point failed).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"orion"
	"orion/internal/cliconfig"
	"orion/internal/outcome"
	"orion/internal/prof"
	"orion/internal/remote"
)

// options holds one parse of the command line.
type options struct {
	cf                                          *cliconfig.Flags
	backends                                    *cliconfig.Backends
	rates, csv, cpuProfile, memProfile, journal string
	resume, worker, status                      bool
	retries, distributed                        int
	lease                                       time.Duration
}

// bindFlags declares every orion-sweep flag on fs.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{cf: cliconfig.Bind(fs, cliconfig.Sweep), backends: cliconfig.BindBackends(fs)}
	fs.StringVar(&o.rates, "rates", "0.02,0.04,0.06,0.08,0.10,0.12,0.14,0.16,0.18,0.20",
		"comma-separated injection rates")
	fs.StringVar(&o.csv, "csv", "", "also write the curve to a CSV file for plotting")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&o.journal, "journal", "", "write-ahead sweep journal (work-queue JSON lines), fsynced per claim and per completed point")
	fs.BoolVar(&o.resume, "resume", false, "resume from an existing -journal, skipping completed points")
	fs.IntVar(&o.retries, "retries", 1, "retries per transiently-failed point (panic or point timeout only)")
	fs.IntVar(&o.distributed, "distributed", 0,
		"run N worker subprocesses against the shared -journal work queue and merge their results")
	fs.BoolVar(&o.worker, "worker", false,
		"join the -journal work queue as one worker (spawned by -distributed, or by hand on a shared filesystem)")
	fs.BoolVar(&o.status, "status", false,
		"print per-point state of the -journal sweep (done/failed/claimed/pending) and exit")
	fs.DurationVar(&o.lease, "lease", 5*time.Second,
		"work-queue claim lease: a worker silent this long is presumed dead and its points are stolen")
	return o
}

// fail reports an error and returns exit status 1. Callers return it
// rather than exit, so run's deferred profile flush and signal.Stop
// still happen.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "orion-sweep: "+format+"\n", args...)
	return 1
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseFlags validates every flag before any journal is touched or
// process spawned, so a bad flag fails fast with the flag or Config
// field named. It returns the sweep configuration, its rates and the
// backend pool options (no backends when -backends is not given).
func parseFlags(o *options) (cfg orion.Config, rates []float64, bopts remote.Options, err error) {
	switch {
	case o.lease <= 0:
		// A zero lease would make every claim instantly stealable.
		err = fmt.Errorf("-lease: must be positive, got %v", o.lease)
	case o.retries < 0:
		err = fmt.Errorf("-retries: must not be negative, got %d", o.retries)
	case o.distributed < 0:
		err = fmt.Errorf("-distributed: must not be negative, got %d", o.distributed)
	case o.worker && o.distributed > 0:
		err = errors.New("-worker and -distributed are mutually exclusive")
	case (o.worker || o.distributed > 0 || o.status || o.resume) && o.journal == "":
		err = errors.New("-worker, -distributed, -status and -resume require -journal")
	}
	if err == nil {
		bopts, err = o.backends.Options()
	}
	if err == nil {
		cfg, err = o.cf.Config()
	}
	if err == nil {
		rates, err = cliconfig.ParseRates(o.rates)
	}
	return cfg, rates, bopts, err
}

// run is main's body: it parses args (the command line after the program
// name) into a fresh flag set and returns the process exit status, so
// deferred cleanup (profile flush, journal close) still happens before
// os.Exit. Bad flags exit 2; interrupted sweeps exit 128+signal after
// flushing partial results; -status exits 3 when the journal records
// failed points and 4 when it records expired leases (and no failures).
func run(args []string) (status int) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg, rates, bopts, err := parseFlags(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orion-sweep: %v\n", err)
		return 2
	}
	if o.status {
		return printStatus(o.journal)
	}
	stopProf, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "orion-sweep: %v\n", err)
			if status == 0 {
				status = 1
			}
		}
	}()

	// The backend pool, when -backends is set: points dispatch over HTTP
	// with per-try deadlines derived from the lease, circuit breakers,
	// and (unless opted out) local fallback. Workers and coordinators
	// share the same pool wiring.
	var pool *remote.Pool
	var runner orion.PointRunner
	if len(bopts.Backends) > 0 {
		bopts.Lease = o.lease
		var perr error
		pool, perr = remote.NewPool(bopts)
		if perr != nil {
			return fail("%v", perr)
		}
		runner = pool.RunPoint
	}
	printPoolStats := func() {
		if pool == nil {
			return
		}
		st := pool.Stats()
		fmt.Fprintf(os.Stderr,
			"orion-sweep: backends: %d remote, %d local-fallback, %d attempts (%d busy, %d failed), %d breaker trips\n",
			st.Remote, st.Local, st.Attempts, st.Busy, st.Failures, st.Trips)
	}

	zl, err := orion.ZeroLoadLatency(cfg)
	if err != nil {
		return fail("zero-load: %v", err)
	}
	if !o.worker {
		fmt.Printf("zero-load latency: %.2f cycles\n", zl)
	}

	// SIGINT/SIGTERM cancel the sweep context; in-flight points abort,
	// the journal keeps every already-completed point, and the partial
	// table and CSV below still print before the 128+signal exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	caught := make(chan os.Signal, 1)
	go func() {
		s, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "orion-sweep: %v: cancelling in-flight points, flushing partial results\n", s)
		caught <- s
		cancel()
	}()

	cfg.Sim.PointRetries = o.retries
	if o.worker {
		// Worker mode is quiet: no table, no CSV — the coordinator (or
		// whoever merges the queue) owns the output. The worker claims,
		// heartbeats, runs and commits points until the queue is drained
		// or it is told to stop.
		var stats orion.WorkerStats
		_, werr := orion.SweepJournaledContext(ctx, cfg, rates, orion.SweepJournalOptions{
			Path: o.journal, InFlight: 1, Lease: o.lease, Run: runner, Worker: &stats,
		})
		fmt.Fprintf(os.Stderr, "orion-sweep: worker %d: %d claims (%d steals), %d commits, %d leases lost, %d backend-down\n",
			os.Getpid(), stats.Claims, stats.Steals, stats.Commits, stats.LeasesLost, stats.BackendDown)
		printPoolStats()
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return fail("worker: %v", werr)
		}
		select {
		case s := <-caught:
			if ss, ok := s.(syscall.Signal); ok {
				return 128 + int(ss)
			}
			return 1
		default:
		}
		return 0
	}

	var results []*orion.Result
	var sweepErr error
	if o.distributed > 0 {
		results, sweepErr = runCoordinator(ctx, o, args, cfg, rates)
	} else {
		opts := orion.SweepJournalOptions{
			Path:   o.journal,
			Resume: o.resume,
			Lease:  o.lease,
			Run:    runner,
		}
		if opts.Resume {
			reportResume(o.journal)
		}
		// Points in flight: NumCPU locally; with backends, a couple per
		// backend keeps the fleet busy without flooding any single
		// admission queue.
		if pool != nil {
			opts.InFlight = min(2*len(bopts.Backends), len(rates))
		}
		results, sweepErr = orion.SweepJournaledContext(ctx, cfg, rates, opts)
		printPoolStats()
	}
	if results == nil && sweepErr != nil {
		return fail("%v", sweepErr)
	}
	pointErrs := make([]error, len(rates))
	var serr *orion.SweepError
	if errors.As(sweepErr, &serr) {
		for j, i := range serr.Index {
			pointErrs[i] = serr.Errs[j]
		}
	}
	fmt.Printf("%8s %12s %14s %12s\n", "rate", "latency", "throughput", "power(W)")
	for i, res := range results {
		if res == nil {
			fmt.Printf("%8.3f %12s %14s %12s  (%s)\n", rates[i], "--", "--", "--", classify(pointErrs[i]))
			continue
		}
		fmt.Printf("%8.3f %12.2f %14.4f %12.4g\n",
			rates[i], res.AvgLatency, res.AcceptedFlitsPerNodeCycle, res.TotalPowerW)
	}
	if sat, satFound, _ := orion.Saturation(rates, results, sweepErr, zl); satFound {
		fmt.Printf("saturation throughput: %.3f packets/cycle/node (latency > 2x zero-load)\n", sat)
	} else {
		fmt.Println("saturation: not reached within the swept rates")
	}

	if o.csv != "" {
		if err := writeCSV(o.csv, rates, results); err != nil {
			return fail("writing CSV: %v", err)
		}
		fmt.Printf("curve written to %s\n", o.csv)
	}

	select {
	case s := <-caught:
		if ss, ok := s.(syscall.Signal); ok {
			return 128 + int(ss)
		}
		return 1
	default:
	}
	return 0
}

// runCoordinator is -distributed N: it initialises the shared work-queue
// journal, spawns N worker subprocesses of this same binary (argv with
// the coordinator-only flags stripped and -worker added), respawns
// crashed workers from a bounded budget, and merges the committed
// results once every point settles. The coordinator itself runs no
// points. A worker killed mid-point stops heartbeating; its lease
// expires and a survivor steals and re-runs the point, so the merged
// curve is byte-identical to a clean single-process sweep.
func runCoordinator(ctx context.Context, o *options, argv []string, cfg orion.Config, rates []float64) ([]*orion.Result, error) {
	n := o.distributed
	if o.resume {
		reportResume(o.journal)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating worker binary: %w", err)
	}
	args := workerArgs(argv)

	// wctx governs the worker fleet: cancelling it SIGTERMs the children
	// (they drop their claims and exit). waitCtx governs the merge wait:
	// the reaper cancels it if the fleet dies for good, so the
	// coordinator returns a partial merge instead of waiting forever.
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	waitCtx, stopWait := context.WithCancel(ctx)
	defer stopWait()

	var mu sync.Mutex
	procs := make(map[int]*os.Process)
	live, budget := 0, 2*n+2
	exits := make(chan error, 4*n+4)
	spawn := func() error {
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		pid := cmd.Process.Pid
		mu.Lock()
		procs[pid] = cmd.Process
		live++
		budget--
		mu.Unlock()
		go func() {
			werr := cmd.Wait()
			mu.Lock()
			delete(procs, pid)
			live--
			mu.Unlock()
			exits <- werr
		}()
		return nil
	}
	// The fleet starts once the journal is open: the sweep reports its
	// first progress right after creating (or resuming) it, and workers
	// never create a missing journal.
	var spawnErr error
	started := false
	startFleet := func(int, int) {
		if started {
			return
		}
		started = true
		fmt.Printf("distributed: %d workers on %s\n", n, o.journal)
		go func() {
			<-wctx.Done()
			mu.Lock()
			for _, p := range procs {
				_ = p.Signal(syscall.SIGTERM)
			}
			mu.Unlock()
		}()
		for i := 0; i < n; i++ {
			if err := spawn(); err != nil {
				spawnErr = fmt.Errorf("spawning worker: %w", err)
				stopWait()
				return
			}
		}
		// Reap worker exits. A crash (non-zero exit, coordinator not
		// cancelled) is logged and the worker replaced while the budget
		// lasts; the crashed worker's in-flight point comes back via lease
		// expiry. When the fleet is gone and cannot be rebuilt, stop the
		// merge wait — either the queue is already complete (clean exits)
		// or nothing is left to finish it.
		go func() {
			for {
				select {
				case <-waitCtx.Done():
					return
				case werr := <-exits:
					mu.Lock()
					l, b := live, budget
					mu.Unlock()
					if werr != nil && wctx.Err() == nil {
						if b > 0 {
							fmt.Fprintf(os.Stderr, "orion-sweep: worker died (%v); respawning (%d respawns left)\n", werr, b)
							if serr := spawn(); serr == nil {
								continue
							}
						} else {
							fmt.Fprintf(os.Stderr, "orion-sweep: worker died (%v); respawn budget exhausted\n", werr)
						}
					}
					if l == 0 {
						stopWait()
						return
					}
				}
			}
		}()
	}

	results, sweepErr := orion.SweepJournaledContext(waitCtx, cfg, rates, orion.SweepJournalOptions{
		Path:     o.journal,
		Resume:   o.resume,
		InFlight: -1,
		Lease:    o.lease,
		Progress: startFleet,
	})
	// Workers notice completion themselves on their next queue scan; give
	// them a moment to exit cleanly before resorting to SIGTERM.
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		mu.Lock()
		l := live
		mu.Unlock()
		if l == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopWorkers()
	// Drain the fleet so no worker outlives the coordinator.
	for {
		mu.Lock()
		l := live
		mu.Unlock()
		if l == 0 {
			break
		}
		select {
		case <-exits:
		case <-time.After(5 * time.Second):
			mu.Lock()
			for _, p := range procs {
				_ = p.Kill()
			}
			mu.Unlock()
		}
	}
	switch {
	case spawnErr != nil:
		return nil, spawnErr
	case errors.Is(sweepErr, context.Canceled) && ctx.Err() == nil:
		sweepErr = fmt.Errorf("worker fleet exited before completing the sweep: %w", sweepErr)
	}
	return results, sweepErr
}

// reportResume prints how much of a journal a resumed sweep will keep.
// A journal that cannot be read is left for the sweep itself to reject.
func reportResume(path string) {
	st, err := orion.JournalStatus(path)
	if err != nil || len(st) == 0 {
		return
	}
	settled := 0
	for _, p := range st {
		if p.State == "done" || p.State == "failed" {
			settled++
		}
	}
	fmt.Printf("journal: resuming %s, %d/%d points settled\n", path, settled, len(st))
}

// workerArgs strips the coordinator-only flags from argv and appends
// -worker, producing the command line for a worker subprocess: same
// configuration, rates, journal, lease and retries; no -distributed
// (workers do not recurse), no output or profile flags, and no -resume
// or -status (the coordinator already prepared the queue).
func workerArgs(argv []string) []string {
	valueFlags := map[string]bool{"distributed": true, "csv": true, "cpuprofile": true, "memprofile": true}
	boolFlags := map[string]bool{"resume": true, "status": true, "worker": true}
	var out []string
	for i := 0; i < len(argv); i++ {
		arg := argv[i]
		if len(arg) < 2 || arg[0] != '-' {
			out = append(out, arg)
			continue
		}
		name := strings.TrimLeft(arg, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			if valueFlags[name[:eq]] || boolFlags[name[:eq]] {
				continue
			}
			out = append(out, arg)
			continue
		}
		if boolFlags[name] {
			continue
		}
		if valueFlags[name] {
			i++ // the flag's value is the next token; drop both
			continue
		}
		out = append(out, arg)
	}
	return append(out, "-worker")
}

// printStatus is -status: the per-point state of a sweep journal, for
// inspecting a crashed or in-flight sweep. The exit status is
// machine-readable health: 0 when every point is done, pending or
// freshly claimed; 3 when any point failed; 4 when any claim's lease has
// expired (a worker presumed dead) and nothing failed — so scripts and
// monitors can branch on a sweep's health without parsing the table.
func printStatus(path string) int {
	pts, err := orion.JournalStatus(path)
	if err != nil {
		return fail("%v", err)
	}
	if len(pts) == 0 {
		fmt.Printf("journal %s: empty or missing\n", path)
		return 0
	}
	fmt.Printf("%5s %8s %-8s %-24s %s\n", "point", "rate", "state", "worker", "detail")
	settled, failed, expired := 0, 0, 0
	for _, p := range pts {
		detail := ""
		switch {
		case p.State == "failed":
			detail = p.Err
			failed++
		case p.State == "claimed" && p.LeaseExpired:
			detail = "lease expired (stealable)"
			expired++
		}
		if p.State == "done" || p.State == "failed" {
			settled++
		}
		fmt.Printf("%5d %8.3f %-8s %-24s %s\n", p.Index, p.Rate, p.State, p.Worker, detail)
	}
	fmt.Printf("%d/%d points settled\n", settled, len(pts))
	switch {
	case failed > 0:
		fmt.Printf("unhealthy: %d failed point(s)\n", failed)
		return 3
	case expired > 0:
		fmt.Printf("unhealthy: %d expired lease(s)\n", expired)
		return 4
	}
	return 0
}

// causes are the table's short cause tags for failed points, by
// failure code.
var causes = map[string]string{
	outcome.Invariant:   "invariant violated",
	outcome.Saturated:   "over-saturated",
	outcome.Deadlock:    "no progress",
	outcome.Overloaded:  "overloaded",
	outcome.BackendDown: "backends down",
	outcome.Timeout:     "point timeout",
	outcome.Cancelled:   "cancelled",
	outcome.Internal:    "failed",
}

// classify renders a failed point's error as a short cause tag; a point
// with no error never settled.
func classify(err error) string {
	if err == nil {
		return "run aborted"
	}
	code, faulted := outcome.Code(err)
	if faulted {
		return causes[code] + ", fault-induced"
	}
	return causes[code]
}

// writeCSV emits one row per rate point with the quantities of the paper's
// figure axes plus the component power split.
func writeCSV(path string, rates []float64, results []*orion.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"rate", "latency_cycles", "throughput_flits_node_cycle", "power_w",
		"buffer_w", "crossbar_w", "arbiter_w", "link_w", "central_buffer_w"}
	if err := w.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for i, res := range results {
		row := []string{ff(rates[i])}
		if res == nil {
			row = append(row, "", "", "", "", "", "", "", "")
		} else {
			b := res.Breakdown
			row = append(row, ff(res.AvgLatency), ff(res.AcceptedFlitsPerNodeCycle), ff(res.TotalPowerW),
				ff(b.BufferW), ff(b.CrossbarW), ff(b.ArbiterW), ff(b.LinkW), ff(b.CentralBufferW))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}
