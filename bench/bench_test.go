package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// TestQuickWorkloads runs every workload at smoke-test size, untraced
// and traced, with the reference-path check of its first op.
func TestQuickWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				o := runOptions{params: params{seed: 7, quick: true, dir: t.TempDir()}, seconds: 0.2, trace: traced}
				rep, err := runWorkload(context.Background(), name, o)
				if err != nil {
					t.Fatal(err)
				}
				spans, layers := rep.spans, rep.layers
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
					t.Fatalf("correct %v, failed %d of %d", rep.Correct, rep.Failed, rep.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := rep.Metrics[n]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %s", n, m, unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", n, m.Value)
					}
				}
				if !traced {
					return
				}
				if len(spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				for _, n := range []string{"core.build_ms", "core.chunk_ms_p50", "core.finish_ms", "power.events", "point.ms_p50"} {
					if !(layers[n] > 0) {
						t.Errorf("per-layer %s = %v, want > 0", n, layers[n])
					}
				}
			})
		}
	}
}

func TestGoldenCoversWorkloads(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if len(g[name]) != 16 {
			t.Errorf("golden.json has %q for %s, want a 16-digit digest", g[name], name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json defines what the command
// prints.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, c := range []struct {
		list []specMetric
		want map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.list) != len(c.want) {
			t.Errorf("%d metrics, want %d", len(c.list), len(c.want))
		}
		for _, m := range c.list {
			if c.want[m.Name] != m.Unit || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v: the command reports unit %q", m, c.want[m.Name])
			}
		}
	}
	setup := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s bound %v: want (0, 0.25] and no larger than setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

func TestNearestRank(t *testing.T) {
	vals := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{{1, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50}} {
		if got := nearestRank(vals, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(v, n=4)
// gives for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.vals, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},  // runs past the root
		{Name: "d", ID: 5, Parent: 2, Start: 15, End: 25},   // a's child
		{Name: "e", ID: 6, Parent: 9, Start: 100, End: 200}, // orphan
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 10, 3: 30, 4: 30, 5: 10, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestRequestIDLinking sends a traced and an untraced request through
// the tracing transport to the tracing handler: only the traced one
// leaves spans, and the handler's span hangs under the client's.
func TestRequestIDLinking(t *testing.T) {
	tr := newTracer()
	ts := httptest.NewServer(traceHandler(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"ok":true,"cached":true}`)
	})))
	defer ts.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: tracingTransport{base: transport}}

	get := func(ctx context.Context) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(context.Background())
	if n := len(tr.recorded()); n != 0 {
		t.Fatalf("untraced request left %d spans", n)
	}
	root := tr.begin(spanPoint, 0)
	get(context.WithValue(context.Background(), traceKey{}, traceRef{tr, root.ID}))
	tr.end(root)

	by := map[string]span{}
	for _, s := range tr.recorded() {
		by[s.Name] = s
	}
	rt, handler := by[spanRT], by[spanHandler]
	if len(by) != 3 || rt.Parent != root.ID || handler.Parent != rt.ID || !handler.Cached {
		t.Fatalf("spans %+v: want %s under the root and %s (cached) under it", by, spanRT, spanHandler)
	}
	if handler.Start < rt.Start || handler.End > rt.End {
		t.Errorf("handler span [%d, %d] outside its round trip [%d, %d]", handler.Start, handler.End, rt.Start, rt.End)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, jitter []float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v*f + jitter[i%len(jitter)]
		}
		return out
	}
	for _, c := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		want        string
	}{
		{"faster", scale(0.8, []float64{0}), true, "better"},
		{"slower", scale(1.3, []float64{0}), true, "worse"},
		{"slower but higher is better", scale(0.8, []float64{0}), false, "worse"},
		{"within bound", scale(1.05, []float64{0}), true, "same"},
		{"noisy", scale(1, []float64{-40, 40, -30, 30}), true, "unresolved"},
	} {
		if got, _ := judge(parent, c.change, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
