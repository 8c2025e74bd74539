package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"

	"orion"
)

// golden.json holds, for each workload, the digest of its first op's
// results at seed 1 in the full (not -quick) configuration.
//
//go:embed golden.json
var goldenJSON []byte

// goldenPath is where -write-golden writes, relative to the repository root.
const goldenPath = "bench/golden.json"

func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: parsing golden.json: %w", err)
	}
	return g, nil
}

// referenceConfig puts cfg on the reference paths every fast path must
// match bit for bit: the sequential engine, every module ticked every
// cycle, and the map-based event listener.
func referenceConfig(cfg orion.Config) orion.Config {
	cfg.Sim.Workers = 1
	cfg.Sim.AlwaysTick = true
	cfg.Sim.ReferenceEventPath = true
	return cfg
}

// digest is FNV-1a over the bits of each result's latencies, power and
// energy, then its event counts and cycle counts.
func digest(results []*orion.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range results {
		bd := r.Breakdown
		for _, f := range []float64{
			r.AvgLatency, r.MinLatency, r.MaxLatency, r.LatencyStdDev,
			r.LatencyP50, r.LatencyP95, r.LatencyP99,
			r.TotalPowerW, bd.BufferW, bd.CrossbarW, bd.ArbiterW, bd.LinkW, bd.CentralBufferW,
			r.StaticPowerW, r.EnergyJ,
		} {
			put(math.Float64bits(f))
		}
		e := r.Events
		for _, n := range []int64{
			e.BufferWrites, e.BufferReads, e.Arbitrations, e.VCAllocations,
			e.CrossbarTraversals, e.LinkTraversals, e.CentralBufferWrites, e.CentralBufferReads,
			r.SamplePackets, r.MeasuredCycles, r.TotalCycles, r.InjectedFlits, r.EjectedFlits,
		} {
			put(uint64(n))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameResults reports whether two result lists are bit-identical in
// every field. encoding/json writes each float64 in its shortest exact
// form, so equal encodings mean equal bits.
func sameResults(a, b []*orion.Result) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// checker counts ops and failures, and holds each op key's first result
// digest: any later op with the same key must reproduce it exactly.
type checker struct {
	mu        sync.Mutex
	seen      map[string]string
	attempted int
	failed    int
}

func newChecker() *checker { return &checker{seen: map[string]string{}} }

// observe records one op's outcome and reports whether it passed.
func (c *checker) observe(key string, results []*orion.Result, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failLocked("op %s: %v", key, err)
		return false
	}
	d := digest(results)
	if want, ok := c.seen[key]; ok && want != d {
		c.failLocked("op %s: result digest %s differs from an earlier run's %s", key, d, want)
		return false
	}
	c.seen[key] = d
	return true
}

// check counts a check that is not an op of its own, failing it unless ok.
func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failLocked(format, args...)
	}
}

func (c *checker) failLocked(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
}
