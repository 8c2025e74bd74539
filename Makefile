# Development entry points. `make ci` runs the CI workflow's test,
# fuzz-smoke and experiments-doc jobs. The other CI jobs stay CI-only:
# the sweep gates (`make sweep-gates`), the parallel-speedup job (the
# worker-speedup and gating speedup smokes and the 1024-node race run),
# bench-gate (`make bench-compare` at CI's tolerance) and vulncheck.

GO ?= go

.PHONY: build fmt-check vet test bench-test race race-workers fuzz-smoke bench-smoke bench bench-compare checkpoint-resume distributed-sweep remote-sweep serve-smoke sweep-gates experiments-doc experiments-doc-update ci

build:
	$(GO) build ./...

# Fails, listing the files, when any Go file (bench/ included) is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench/ is its own module, so the root `go test ./...` skips it; it
# compiles against the public API, so vet and test it separately.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

race:
	ORION_INVARIANTS=1 $(GO) test -race ./...

# Same race run with the parallel tick kernel forced on (4 workers) so
# the sharded event path, ordered ring phase and merge are exercised by
# every golden/determinism test, not just the dedicated parallel ones.
race-workers:
	ORION_INVARIANTS=1 ORION_WORKERS=4 $(GO) test -race ./...

# Short fuzz pass over every parser that accepts external input (config
# JSON, fault and topology specs, trace files, journal formats); CI runs
# the same targets.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoadConfigJSON -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzParseTopologySpec -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 10s ./internal/traffic
	$(GO) test -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzQueueLine -fuzztime 10s ./internal/queue
	$(GO) test -run '^$$' -fuzz FuzzServeRequest -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseBackends -fuzztime 10s ./internal/remote

# End-to-end crash/resume gate: a journaled sweep SIGKILLed mid-run and
# resumed gives a CSV byte-identical to a clean sweep.
checkpoint-resume:
	scripts/checkpoint_resume.sh

# End-to-end distributed-sweep chaos gate: 4 worker processes, two
# SIGKILLed mid-run, merged CSV byte-identical to a clean sweep.
distributed-sweep:
	scripts/distributed_sweep.sh

# End-to-end remote-backend chaos gate: two real orion-serve backends,
# one SIGKILLed mid-sweep; the dispatched CSV must stay byte-identical
# to a clean local run.
remote-sweep:
	scripts/remote_sweep.sh

# End-to-end daemon smoke: repeated request served from the result
# cache, typed timeout code under a short deadline, graceful SIGTERM
# drain with exit 0, cache entries surviving a restart.
serve-smoke:
	scripts/serve_smoke.sh

# Every end-to-end sweep and service gate CI runs as a script.
sweep-gates: checkpoint-resume distributed-sweep remote-sweep serve-smoke

# EXPERIMENTS.md drift check: regenerates every figure at the paper's
# protocol (seed 1, 10,000 samples; about 25 s on 2 CPUs), checks every
# Summary predicate and fails when any generated block differs from the
# document. Part of `ci`, and its own CI job.
experiments-doc:
	$(GO) test -tags experiments -run TestExperimentsDoc -count=1 -timeout 20m ./internal/experiments

# Rewrites the generated blocks of EXPERIMENTS.md in place.
experiments-doc-update:
	$(GO) test -tags experiments -run TestExperimentsDoc -count=1 -timeout 20m ./internal/experiments -update

# A fast allocation-regression check: the Publish and router-tick
# micro-benchmarks must report 0 allocs/op (also pinned by the
# *ZeroAlloc tests, which `test` runs).
bench-smoke:
	$(GO) test ./internal/sim ./internal/router -run '^$$' \
		-bench 'BenchmarkBusPublish$$|BenchmarkRouterTick' -benchtime 100x -benchmem

# Full hot-path benchmark sweep, recorded to BENCH_hotpath.json.
bench:
	scripts/bench.sh

# Regression gate: fresh bench run vs the committed BENCH_hotpath.json;
# fails on >15% ns/op slowdown (override with BENCH_TOLERANCE_PCT).
bench-compare:
	scripts/bench_compare.sh

ci: build fmt-check vet race race-workers bench-test bench-smoke fuzz-smoke experiments-doc
