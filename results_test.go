package orion

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestPinnedResults pins absolute one-worker results to
// testdata/results.golden: for every golden preset and every
// worker-invariance case, the state hash at cycle 400 and every
// fingerprint field of the finished run, floats as their IEEE bits. The
// determinism, invariance and fast-vs-reference tests compare two runs of
// the same build; this file is what catches a kernel change that moves
// both sides of such a comparison at once. After an intended change of
// results, run `go test -run TestPinnedResults -update .` and review the
// diff.
func TestPinnedResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which moves the
		// low bits of the energy sums.
		t.Skipf("float bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	cases := map[string]Config{}
	for name, cfg := range goldenConfigs() {
		cases["golden/"+name] = cfg
	}
	for _, tc := range parallelCases {
		cases["parallel/"+tc.name] = tc.cfg()
	}
	for name, cfg := range faultedConfigs() {
		cases["faulted/"+name] = cfg
	}
	for name, cfg := range topologyConfigs() {
		cases["topology/"+name] = cfg
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		h, res := runAtWorkers(t, cases[name], 1)
		f := fingerprint(res)
		fmt.Fprintf(&b, "%s hash=%016x energy=%016x avg=%016x p50=%016x p95=%016x p99=%016x power=%016x injected=%d ejected=%d cycles=%d events=%+v",
			name, h, f.energy, f.avg, f.p50, f.p95, f.p99, f.powerW, f.injected, f.ejected, f.cycles, f.events)
		if cases[name].Faults != nil {
			fmt.Fprintf(&b, " faults=%+v", res.Faults)
		}
		b.WriteString("\n")
	}
	got := b.String()

	const golden = "testdata/results.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("results differ from %s (run with -update after an intended change)\ngot:\n%s", golden, got)
	}
}

// faultedConfigs are the pinned fault-injection cases: the two crossbar
// router kinds on chip, the central-buffered router chip to chip and the
// virtual-channel router under link DVS, each under one schedule that
// drops, stalls and corrupts link traffic and stalls an input port, so
// every fault path of both router kinds moves a pinned number.
func faultedConfigs() map[string]Config {
	faulted := func(cfg Config) Config {
		cfg.Traffic.Seed = 7
		cfg.Sim.WarmupCycles = 300
		cfg.Faults = &FaultsConfig{
			Seed: 3,
			Faults: []Fault{
				{Kind: FaultLinkDrop, Node: 0, Port: 0, Start: 400, Duration: 600},
				{Kind: FaultLinkStall, Node: 5, Port: 2, Start: 300, Duration: 200},
				{Kind: FaultPortStall, Node: 6, Port: 1, Start: 350, Duration: 150},
				{Kind: FaultBitFlip, Node: 10, Port: 1, Rate: 0.05},
			},
		}
		return cfg
	}
	dvs := OnChip4x4(VC16(), 0.10)
	dvs.Link.DVS = &DVSPolicy{}
	return map[string]Config{
		"VC16":     faulted(OnChip4x4(VC16(), 0.10)),
		"WH64":     faulted(OnChip4x4(WH64(), 0.10)),
		"CB":       faulted(ChipToChip4x4(CB(), 0.10)),
		"VC16-DVS": faulted(dvs),
	}
}

// topologyConfigs are the pinned topology cases: 3-D tori under bubble
// flow control and dateline classes, balanced half-ring ties in two and
// three dimensions, and a non-square mesh, so every routing path of the
// grid moves a pinned number.
func topologyConfigs() map[string]Config {
	shaped := func(cfg Config, w, h, d int) Config {
		cfg.Width, cfg.Height, cfg.Depth = w, h, d
		return cfg
	}
	dateline := shaped(OnChip4x4(VC16(), 0.05), 4, 4, 4)
	dateline.Sim.Deadlock = DeadlockDateline
	balanced := OnChip4x4(VC16(), 0.10)
	balanced.BalancedTieRouting = true
	balanced3D := shaped(OnChip4x4(VC16(), 0.08), 4, 3, 2)
	balanced3D.BalancedTieRouting = true
	return map[string]Config{
		"3x3x3-VC16":          shaped(OnChip4x4(VC16(), 0.08), 3, 3, 3),
		"4x4x4-VC16-dateline": dateline,
		"4x4-VC16-balanced":   balanced,
		"4x3x2-VC16-balanced": balanced3D,
		"mesh5x3-VC16":        OnChipMesh(5, 3, VC16(), 0.08),
	}
}
