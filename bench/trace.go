package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark crosses. All spans
// are recorded by the benchmark around public calls; none come from
// inside the program.
const (
	spanOp      = "op"            // one workload op: a sweep, a run, a sweep pass or a client request
	spanJournal = "journal.pass"  // one orion.SweepJournaled pass
	spanShadow  = "shadow"        // an in-process re-run of a configuration the server simulated
	spanPoint   = "point"         // one point: a PointRunner call, an orion.Run, a remote.Pool.RunPoint
	spanBuild   = "core.build"    // orion.NewSim
	spanStep    = "core.step"     // one Sim.StepTo chunk
	spanFinish  = "core.finish"   // Sim.RunContext after the last chunk
	spanRT      = "remote.rt"     // one HTTP round trip made by remote.Pool.RunPoint
	spanHandler = "serve.handler" // serve.Server.Handler() answering that round trip
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is 0 for a root. The
// count fields hold what the boundary knows about the work it did.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Nodes is the fabric size (core.step, core.finish).
	Nodes int64 `json:"nodes,omitempty"`
	// Cycles is the cycles advanced (core.step) or measured (core.finish).
	Cycles int64 `json:"cycles,omitempty"`
	// Events is the result's energy-event count (core.finish).
	Events int64 `json:"events,omitempty"`
	// Points is the number of points an op or pass delivered.
	Points int64 `json:"points,omitempty"`
	// Workers is the resolved tick-worker count (core.build) or the
	// number of points an op runs at once (op, journal.pass).
	Workers int `json:"workers,omitempty"`
	// Cached marks a handler answer served from the result cache.
	Cached bool `json:"cached,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is an
// untraced run: begin and end do nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, ID: t.next.Add(1), Parent: parent, Start: int64(time.Since(t.epoch))}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans kept so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (points
// of one sweep run side by side) are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerMetrics derives the per-layer metrics from a traced run's spans.
// A layer the workload does not cross contributes zeros.
func layerMetrics(spans []span) map[string]float64 {
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	durs := func(ss []span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.dur())
		}
		return out
	}
	sum := func(ss []span, f func(span) float64) float64 {
		t := 0.0
		for _, s := range ss {
			t += f(s)
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dur := func(s span) float64 { return float64(s.dur()) }
	self := selfTimes(spans)
	m := map[string]float64{}

	builds, steps, finishes := by[spanBuild], by[spanStep], by[spanFinish]
	workers := make([]float64, len(builds))
	for i, s := range builds {
		workers[i] = float64(s.Workers)
	}
	nodeCycles := func(s span) float64 { return float64(s.Nodes * s.Cycles) }
	events := func(s span) float64 { return float64(s.Events) }
	m["core.build_ms"] = ms(median(durs(builds)))
	m["core.workers"] = median(workers)
	m["core.step_ns_per_node_cycle"] = ratio(sum(steps, dur), sum(steps, nodeCycles))
	m["core.step_ns_per_event"] = ratio(sum(steps, dur)+sum(finishes, dur), sum(finishes, events))
	m["core.chunk_ms_p50"] = ms(nearestRank(durs(steps), 50))
	m["core.chunk_ms_p90"] = ms(nearestRank(durs(steps), 90))
	m["core.finish_ms"] = ms(median(durs(finishes)))

	perFinish := make([]float64, len(finishes))
	for i, s := range finishes {
		perFinish[i] = float64(s.Events)
	}
	m["power.events"] = median(perFinish)
	m["power.events_per_node_cycle"] = ratio(sum(finishes, events), sum(finishes, nodeCycles))

	points, ops := by[spanPoint], by[spanOp]
	pointSelf := make([]float64, len(points))
	for i, s := range points {
		pointSelf[i] = float64(self[s.ID])
	}
	m["point.ms_p50"] = ms(nearestRank(durs(points), 50))
	m["point.ms_max"] = ms(nearestRank(durs(points), 100))
	m["point.self_ms_p50"] = ms(nearestRank(pointSelf, 50))
	opCapacity := sum(ops, func(s span) float64 { return dur(s) * float64(s.Workers) })
	m["sweep.busy_ratio"] = ratio(sum(points, dur), opCapacity)
	m["sweep.overhead_ms_per_point"] = ms(ratio(opCapacity-sum(points, dur), float64(len(points))))

	// The journal's cost per point: a journaled pass against a plain
	// sweep pass over the same rates.
	if passes := by[spanJournal]; len(passes) > 0 && len(ops) > 0 {
		pts := func(s span) float64 { return float64(s.Points) }
		m["journal.overhead_ms_per_point"] = ms(ratio(sum(passes, dur), sum(passes, pts)) - ratio(sum(ops, dur), sum(ops, pts)))
	}

	if handlers := by[spanHandler]; len(handlers) > 0 {
		var hit, miss []float64
		for _, s := range handlers {
			if s.Cached {
				hit = append(hit, float64(s.dur()))
			} else {
				miss = append(miss, float64(s.dur()))
			}
		}
		m["serve.handler_ms_p50_hit"] = ms(nearestRank(hit, 50))
		m["serve.handler_ms_p50_miss"] = ms(nearestRank(miss, 50))
		m["serve.handler_ms_p99_miss"] = ms(nearestRank(miss, 99))
		m["remote.client_overhead_ms_p50"] = m["point.self_ms_p50"]
	}
	return m
}
