// Command bench is the end-to-end benchmark of the Orion simulator. It
// runs one named workload for a fixed time, checks every simulated
// result bit for bit, and prints one JSON line of metrics: the
// end-to-end metrics of BENCHMARK.json, or with -trace 1 the per-layer
// metrics derived from spans recorded around each public call.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload mesh1k-busy -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh                      # every workload, one child process each
//	bash bench/run.sh -compare A/ B/       # two result sets made with -record
//
// See bench/README.md for the workloads, the metrics and what each
// per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+"; empty runs each in a child process")
		seed        = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds     = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace       = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		quick       = flag.Bool("quick", false, "shrink each workload to a smoke-test size")
		recordDir   = flag.String("record", "", "also append the result, with the CPU count and Go version, to `dir`/results.jsonl")
		compare     = flag.Bool("compare", false, "compare the result sets in the two directories given as arguments")
		writeGolden = flag.Bool("write-golden", false, "rewrite "+goldenPath+" from reference-path runs at seed 1")
	)
	flag.Parse()
	ctx := context.Background()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result-set directories")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive, got %g\n", *seconds)
		return 2
	case *writeGolden:
		if err := rewriteGolden(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return 0
	case *workload == "":
		return runAll()
	case !slices.Contains(workloadNames, *workload):
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames)
		return 2
	}

	started := time.Now()
	dir, err := scratchDir(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(dir)
	o := runOptions{params: params{seed: *seed, quick: *quick, dir: dir}, seconds: *seconds, trace: *trace == 1}
	res, err := runWorkload(ctx, *workload, o)
	if err == nil && o.trace {
		err = writeTrace(*workload, *seed, res.spans, res.layers)
	}
	if err == nil && *recordDir != "" {
		err = appendRecord(*recordDir, record{
			Workload: *workload, Seed: *seed, Trace: o.trace, Seconds: *seconds,
			CPUs: runtime.NumCPU(), Go: runtime.Version(), Start: started.UnixNano(), report: res.report,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// outDir holds, relative to the repository root, the scratch files and
// trace output of a run; bench/run.sh builds into it too.
const outDir = ".bench_build"

func scratchDir(workload string) (string, error) {
	work := filepath.Join(outDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	return os.MkdirTemp(work, workload+"-")
}

// runAll runs every workload in turn, each in a child process of its
// own so one workload's heap and peak RSS do not carry into the next.
func runAll() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	status := 0
	for _, name := range workloadNames {
		fmt.Fprintf(os.Stderr, "bench: %s\n", name)
		cmd := exec.Command(exe, append(os.Args[1:], "-workload", name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

func runCompare(dirA, dirB string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, errA := loadRecords(dirA)
	b, errB := loadRecords(dirB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	regressed, err := compareSets(a, b, spec, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// writeTrace writes a traced run's spans and its per-layer metrics,
// including those only one workload has, under outDir/trace, and prints
// the metrics to standard error.
func writeTrace(workload string, seed int64, spans []span, layers map[string]float64) error {
	dir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	summary := map[string]any{
		"workload": workload, "seed": seed, "cpus": runtime.NumCPU(), "go": runtime.Version(),
		"spans": len(spans), "metrics": layers,
	}
	for path, v := range map[string]any{base + ".spans.json": spans, base + ".layers.json": summary} {
		data, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return fmt.Errorf("bench: writing trace: %w", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: writing trace: %w", err)
		}
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-32s %g\n", n, layers[n])
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans in %s.spans.json\n", len(spans), base)
	return nil
}

// rewriteGolden records each workload's first-op digest at seed 1 from
// its run on the reference paths.
func rewriteGolden(ctx context.Context) error {
	golden := map[string]string{}
	for _, name := range workloadNames {
		dir, err := scratchDir(name)
		if err != nil {
			return err
		}
		w, err := newWorkload(name, params{seed: 1, dir: dir})
		if err != nil {
			return err
		}
		first := w.warmUp()
		if first == nil {
			first = []op{w.next(0, 0)}
		}
		res, err := first[0].reference(ctx)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("bench: %s reference run: %w", name, err)
		}
		golden[name] = digest(res)
		fmt.Fprintf(os.Stderr, "%-14s %s\n", name, golden[name])
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
