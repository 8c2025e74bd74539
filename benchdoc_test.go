package orion

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignQuotesBenchJSON: the benchmark numbers DESIGN.md quotes are
// the ones BENCH_hotpath.json records, so re-recording the JSON without
// updating the doc, or editing a number in the doc by hand, fails here.
// Each quote is found by its phrasing; a quote that can no longer be
// found fails too, rather than passing unchecked.
func TestDesignQuotesBenchJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Go         string           `json:"go"`
		CPUs       float64          `json:"cpus"`
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatalf("BENCH_hotpath.json: %v", err)
	}
	rows := make(map[string]map[string]any)
	for _, b := range ledger.Benchmarks {
		name, _ := b["name"].(string)
		rows[name] = b
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// Collapse line wraps and table padding so a quote may break lines.
	text := strings.Join(strings.Fields(string(doc)), " ")

	// check compares a quoted number (thousands separated) with the
	// ledger's value of metric in row bench.
	check := func(bench, metric, quoted string) {
		t.Helper()
		row, ok := rows[bench]
		if !ok {
			t.Errorf("DESIGN.md quotes %s %s = %s; BENCH_hotpath.json has no %s row", bench, metric, quoted, bench)
			return
		}
		want, ok := row[metric].(float64)
		if !ok {
			t.Errorf("BENCH_hotpath.json row %s has no %s", bench, metric)
			return
		}
		got, err := strconv.ParseFloat(strings.ReplaceAll(quoted, ",", ""), 64)
		if err != nil || got != want {
			t.Errorf("DESIGN.md quotes %s %s = %s; BENCH_hotpath.json records %s",
				bench, metric, quoted, strconv.FormatFloat(want, 'f', -1, 64))
		}
	}
	// find returns the submatches of the first match of pattern.
	find := func(pattern string) []string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(text)
		if m == nil {
			t.Errorf("DESIGN.md no longer quotes the ledger as /%s/", pattern)
		}
		return m
	}
	const num = `([0-9][0-9,]*)`

	if m := find("its current row \\(`\"cpus\": " + num + "`, (go[0-9.]+)\\) is `BenchmarkFig5VC64` at " +
		num + " ns/op with " + num + " allocs/op"); m != nil {
		if cpus, _ := strconv.ParseFloat(m[1], 64); cpus != ledger.CPUs || m[2] != ledger.Go {
			t.Errorf("DESIGN.md quotes cpus %s, %s; BENCH_hotpath.json records cpus %v, %s", m[1], m[2], ledger.CPUs, ledger.Go)
		}
		check("BenchmarkFig5VC64", "ns/op", m[3])
		check("BenchmarkFig5VC64", "allocs/op", m[4])
	}
	if m := find("`BenchmarkSimulatorSpeed` at " + num + " cycles/s"); m != nil {
		check("BenchmarkSimulatorSpeed", "cycles/s", m[1])
	}
	if m := find("`BenchmarkMesh32VC8LowLoad` vs its `AlwaysTick` twin .*? \\(" + num + " vs " + num + " ns/op\\)"); m != nil {
		check("BenchmarkMesh32VC8LowLoad", "ns/op", m[1])
		check("BenchmarkMesh32VC8LowLoadAlwaysTick", "ns/op", m[2])
	}

	// The mask-driven allocation paragraph: before → after medians,
	// the before side in each row's before- fields.
	const dec = `([0-9][0-9,]*(?:\.[0-9]+)?)`
	for _, q := range []struct{ bench, metric string }{
		{"BenchmarkFig5VC64Workers1", "allocs/op"},
		{"BenchmarkFig7aXB", "B/op"},
		{"BenchmarkRouterTickVC", ""},
	} {
		pattern := "`" + q.bench + "` " + dec + " → " + dec + " ns/op"
		if q.metric != "" {
			pattern += " \\(" + dec + " → " + dec + " " + regexp.QuoteMeta(q.metric) + "\\)"
		}
		if m := find(pattern); m != nil {
			check(q.bench, "before-ns/op", m[1])
			check(q.bench, "ns/op", m[2])
			if q.metric != "" {
				check(q.bench, "before-"+q.metric, m[3])
				check(q.bench, q.metric, m[4])
			}
		}
	}

	// The worker-cutoff table: one row per mesh size, 1 and 2 workers.
	cutoff := regexp.MustCompile(`\| ([0-9]+)×[0-9]+ \| [0-9]+ \| `+num+` \| `+num+` \|`).FindAllStringSubmatch(text, -1)
	if len(cutoff) == 0 {
		t.Error("DESIGN.md has no mesh | nodes | 1 worker | 2 workers cutoff table")
	}
	for _, m := range cutoff {
		check("BenchmarkWorkerCutoff/mesh"+m[1]+"/w1", "ns/op", m[2])
		check("BenchmarkWorkerCutoff/mesh"+m[1]+"/w2", "ns/op", m[3])
	}

	// The Scaling table: one row per recorded worker count.
	start := strings.Index(text, "## Scaling")
	if start < 0 {
		t.Fatal("DESIGN.md has no Scaling section")
	}
	section := text[start+1:]
	if end := strings.Index(section, "## "); end >= 0 {
		section = section[:end]
	}
	table := regexp.MustCompile(`\| ([0-9]+) \| `+num+` \| `+num+` \|`).FindAllStringSubmatch(section, -1)
	if len(table) == 0 {
		t.Error("DESIGN.md's Scaling table has no workers | ns/op | allocs/op row")
	}
	for _, m := range table {
		check("BenchmarkMesh32VC8Workers"+m[1], "ns/op", m[2])
		check("BenchmarkMesh32VC8Workers"+m[1], "allocs/op", m[3])
	}
}
