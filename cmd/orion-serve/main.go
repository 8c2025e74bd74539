// Command orion-serve runs the simulator as a long-running daemon: the
// same engine as cmd/orion and cmd/orion-sweep, behind a hardened
// service layer with admission control, per-request deadlines, a
// persistent digest-keyed result cache, and graceful drain.
//
// It speaks JSON lines over stdio and the same protocol over HTTP:
//
//	# Stdio: one request per line, one response per line:
//	echo '{"op":"run","config":'"$(cat cfg.json)"'}' | orion-serve -stdio
//
//	# HTTP: the daemon logs "http listening on ADDR" at startup:
//	orion-serve -http :8080 &
//	curl -s :8080/v1/run   -d '{"config":'"$(cat cfg.json)"'}'
//	curl -s :8080/v1/sweep -d '{"config":'"$(cat cfg.json)"',"rates":[0.02,0.06]}'
//	curl -s :8080/healthz
//
// A repeated identical request is served from the result cache (the
// response carries "cached":true); concurrent identical requests run the
// simulation once. Requests beyond the admission bound are shed with
// code "overloaded" (HTTP 429 + Retry-After). SIGTERM/SIGINT drain
// gracefully: stop admitting, settle in-flight work against -drain,
// flush the cache index, exit 0.
//
// Exit status: 0 after a clean drain (signal or stdin EOF), 1 on a
// runtime failure, 2 on a flag error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"orion/internal/cliconfig"
	"orion/internal/remote"
	"orion/internal/serve"
)

var (
	httpAddr = flag.String("http", "", "serve HTTP on this address (e.g. :8080; empty = no HTTP)")
	stdio    = flag.Bool("stdio", false,
		"serve JSON lines on stdin/stdout (default when -http is not given)")
	cacheDir = flag.String("cache", "auto",
		"result-cache directory: auto (user cache dir), off, or a path")
	workers = flag.Int("workers", 0, "simulation worker pool size (0 = all cores)")
	queue   = flag.Int("queue", 64,
		"admission queue depth in front of the workers; beyond it requests are shed with 429")
	deadline = flag.Duration("deadline", 2*time.Minute,
		"default per-request deadline when the request carries none (0 = none)")
	maxDeadline = flag.Duration("max-deadline", 10*time.Minute,
		"hard cap on any request's deadline (0 = no cap)")
	drainTmo = flag.Duration("drain", 10*time.Second,
		"graceful-drain deadline: in-flight work past it is cancelled")

	backends = cliconfig.BindBackends(flag.CommandLine)
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "orion-serve: "+format+"\n", args...)
	os.Exit(1)
}

// failFlag reports a flag-validation error and exits 2, matching the
// flag package's own usage-error status.
func failFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "orion-serve: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	flag.Parse()
	// Validate flags at parse time: a daemon that starts with a broken
	// configuration should fail fast and loud, not limp.
	if *workers < 0 {
		failFlag("-workers: must not be negative, got %d", *workers)
	}
	if *queue < 0 {
		failFlag("-queue: must not be negative, got %d", *queue)
	}
	if *deadline < 0 {
		failFlag("-deadline: must not be negative, got %v", *deadline)
	}
	if *maxDeadline < 0 {
		failFlag("-max-deadline: must not be negative, got %v", *maxDeadline)
	}
	if *drainTmo <= 0 {
		failFlag("-drain: must be positive, got %v", *drainTmo)
	}
	bopts, err := backends.Options()
	if err != nil {
		failFlag("%v", err)
	}
	if flag.NArg() > 0 {
		failFlag("unexpected arguments: %v", flag.Args())
	}
	useStdio := *stdio || *httpAddr == ""

	dir := ""
	switch *cacheDir {
	case "off":
	case "auto":
		base, err := os.UserCacheDir()
		if err != nil {
			fail("-cache auto: %v (pass a path or \"off\")", err)
		}
		dir = filepath.Join(base, "orion-serve")
	default:
		dir = *cacheDir
	}

	opts := serve.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheDir:        dir,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainTimeout:    *drainTmo,
	}
	var pool *remote.Pool
	if len(bopts.Backends) > 0 {
		// This instance becomes a sweep coordinator: served sweep points
		// dispatch to the backend fleet, bounded per try by our own
		// default request deadline so a hung backend cannot outlive the
		// request it serves.
		bopts.PerTryTimeout = *deadline
		pool, err = remote.NewPool(bopts)
		if err != nil {
			fail("%v", err)
		}
		opts.RunPoint = pool.RunPoint
		fmt.Fprintf(os.Stderr, "orion-serve: dispatching sweep points to %d backends\n", len(bopts.Backends))
	}
	srv, err := serve.New(opts)
	if err != nil {
		fail("%v", err)
	}
	if dir != "" {
		fmt.Fprintf(os.Stderr, "orion-serve: result cache at %s\n", dir)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var httpSrv *http.Server
	httpDone := make(chan error, 1)
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fail("%v", err)
		}
		// Log the resolved address (":0" picks a free port) so scripts
		// can discover where the daemon landed.
		fmt.Fprintf(os.Stderr, "orion-serve: http listening on %s\n", ln.Addr())
		httpSrv = &http.Server{Handler: srv.Handler()}
		go func() { httpDone <- httpSrv.Serve(ln) }()
	}

	stdioDone := make(chan error, 1)
	if useStdio {
		go func() { stdioDone <- srv.ServeLines(ctx, os.Stdin, os.Stdout) }()
	} else {
		stdioDone = nil
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	// Wait for a shutdown cause: a signal, stdin EOF, or the HTTP
	// listener failing.
	select {
	case s := <-sigCh:
		fmt.Fprintf(os.Stderr, "orion-serve: %v: draining\n", s)
	case err := <-stdioDone:
		stdioDone = nil
		if err != nil {
			fmt.Fprintf(os.Stderr, "orion-serve: stdio: %v\n", err)
		}
	case err := <-httpDone:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("http: %v", err)
		}
	}

	// Graceful drain: stop the HTTP listener (finishing in-flight
	// handlers up to the drain deadline), settle or cancel the server's
	// work, flush the cache index, exit 0.
	if httpSrv != nil {
		sctx, scancel := context.WithTimeout(context.Background(), *drainTmo)
		if err := httpSrv.Shutdown(sctx); err != nil {
			_ = httpSrv.Close()
		}
		scancel()
	}
	cancel()
	if err := srv.Drain(); err != nil {
		fmt.Fprintf(os.Stderr, "orion-serve: drain: %v\n", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"orion-serve: drained: %d requests (%d shed), cache %d hits / %d misses / %d rejected / %d puts\n",
		st.Requests, st.Shed, st.Cache.Hits, st.Cache.Misses, st.Cache.Rejected, st.Cache.Puts)
	if pool != nil {
		pst := pool.Stats()
		fmt.Fprintf(os.Stderr,
			"orion-serve: backends: %d remote, %d local-fallback, %d attempts (%d busy, %d failed), %d breaker trips\n",
			pst.Remote, pst.Local, pst.Attempts, pst.Busy, pst.Failures, pst.Trips)
	}
}
