package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// record is one run's report as -record appends it to a result set,
// with what makes two sets comparable.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	CPUs     int     `json:"cpus"`
	Go       string  `json:"go"`
	Start    int64   `json:"start_unix_ns"`
	report
}

// appendRecord appends r to dir/results.jsonl.
func appendRecord(dir string, r record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: recording: %w", err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("bench: recording: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("bench: recording: %w", err)
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}

// loadRecords reads every *.jsonl file in dir.
func loadRecords(dir string) ([]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("bench: %s line %d: %w", name, n, err)
			}
			out = append(out, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: reading %s: %w", name, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no records in %s", dir)
	}
	return out, nil
}

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json, the benchmark's definition.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading the benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &s, nil
}

// judge compares paired runs of the parent (a) and the change (b) of one
// metric. The change is "better" when it wins at least nine tenths of
// the pairs (ties count for neither side) and the medians differ by more
// than the parent's quartile spread; "unresolved" when either side's
// spread exceeds the bound, unless every run of the change beats every
// run of the parent; "worse" when its median is worse by more than the
// bound; and "same" otherwise.
func judge(a, b []float64, lowerBetter bool, bound float64) (verdict string, wins int) {
	beats := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	for i := range a {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	rel := func(x, base float64) float64 {
		if base == 0 {
			return 0
		}
		return x / math.Abs(base)
	}
	spread := max(rel(qa3-qa1, ma), rel(qb3-qb1, mb))
	worse := rel(mb-ma, ma)
	allBeat := beats(slices.Max(b), slices.Min(a))
	if !lowerBetter {
		worse = -worse
		allBeat = beats(slices.Min(b), slices.Max(a))
	}
	switch {
	case float64(wins) >= 0.9*float64(len(a)) && math.Abs(mb-ma) > qa3-qa1 && beats(mb, ma):
		return "better", wins
	case spread > bound && !allBeat:
		return "unresolved", wins
	case worse > bound:
		return "worse", wins
	}
	return "same", wins
}

// compareSets prints, for each workload and end-to-end metric, both
// sets' medians and quartiles over the runs paired by seed, the change,
// how many pairs B won, and judge's verdict. It refuses sets recorded
// on different CPU counts or Go versions, and reports whether any metric
// got worse by more than its bound.
func compareSets(a, b []record, spec *benchSpec, w io.Writer) (regressed bool, err error) {
	env := a[0]
	for _, r := range append(slices.Clone(a), b...) {
		if r.CPUs != env.CPUs || r.Go != env.Go {
			return false, fmt.Errorf("bench: refusing to compare runs on %d cpus with %s against runs on %d cpus with %s",
				env.CPUs, env.Go, r.CPUs, r.Go)
		}
	}
	type key struct {
		workload string
		seed     int64
	}
	index := func(rs []record) map[key]record {
		m := map[key]record{}
		for _, r := range rs {
			if !r.Trace {
				m[key{r.Workload, r.Seed}] = r
			}
		}
		return m
	}
	ia, ib := index(a), index(b)
	fmt.Fprintf(w, "%d cpus, %s\n", env.CPUs, env.Go)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tverdict")
	for _, name := range workloadNames {
		var pairs []key
		aFirst := 0
		for k, ra := range ia {
			if rb, ok := ib[k]; ok && k.workload == name {
				pairs = append(pairs, k)
				if ra.Start < rb.Start {
					aFirst++
				}
			}
		}
		if len(pairs) == 0 {
			continue
		}
		slices.SortFunc(pairs, func(x, y key) int { return cmp.Compare(x.seed, y.seed) })
		for _, m := range spec.EndToEnd {
			va, vb := make([]float64, len(pairs)), make([]float64, len(pairs))
			for i, k := range pairs {
				va[i], vb[i] = ia[k].Metrics[m.Name].Value, ib[k].Metrics[m.Name].Value
			}
			verdict, wins := judge(va, vb, m.Better == "lower", m.Bound)
			if verdict == "worse" {
				regressed = true
			}
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / math.Abs(ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%d/%d\t%s\n",
				name, m.Name, ma, qa1, qa3, mb, qb1, qb3, change, wins, len(pairs), verdict)
		}
		fmt.Fprintf(tw, "%s\t(A ran first in %d of %d pairs)\t\t\t\t\t\n", name, aFirst, len(pairs))
	}
	return regressed, tw.Flush()
}
