package core

import (
	"runtime"
	"testing"

	"orion/internal/fault"
)

// TestEffectiveWorkers pins the worker resolution policy: the
// machine-derived default drops to 1 below seqCutoffNodes, an explicit
// count (field or ORION_WORKERS) skips that cutoff but not the half-node
// cap, and fault injection always forces one worker.
func TestEffectiveWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	faults := &fault.Config{}
	cases := []struct {
		name    string
		env     string
		workers int
		faults  *fault.Config
		nodes   int
		want    int
	}{
		{name: "auto, 4x4 torus", nodes: 16, want: 1},
		{name: "auto, just below the cutoff", nodes: seqCutoffNodes - 1, want: 1},
		{name: "auto, at the cutoff", nodes: seqCutoffNodes, want: 4},
		{name: "auto, 32x32 mesh", nodes: 1024, want: 4},
		{name: "unparsable env falls back to auto", env: "many", nodes: 16, want: 1},
		{name: "explicit Workers below the cutoff", workers: 2, nodes: 16, want: 2},
		{name: "explicit Workers capped at nodes/2", workers: 16, nodes: 16, want: 8},
		{name: "ORION_WORKERS below the cutoff", env: "4", nodes: 16, want: 4},
		{name: "ORION_WORKERS capped at nodes/2", env: "4", nodes: 6, want: 3},
		{name: "Workers wins over ORION_WORKERS", env: "4", workers: 2, nodes: 1024, want: 2},
		{name: "faults force 1 over Workers", workers: 4, faults: faults, nodes: 1024, want: 1},
		{name: "faults force 1 over ORION_WORKERS", env: "4", faults: faults, nodes: 1024, want: 1},
		{name: "faults force 1 over auto", faults: faults, nodes: 1024, want: 1},
		{name: "a single node", workers: 4, nodes: 1, want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// An empty value reads as unset, so the case holds even under
			// `ORION_WORKERS=4 go test`.
			t.Setenv("ORION_WORKERS", tc.env)
			c := Config{Workers: tc.workers, Faults: tc.faults}
			if got := c.effectiveWorkers(tc.nodes); got != tc.want {
				t.Errorf("effectiveWorkers(%d) = %d, want %d", tc.nodes, got, tc.want)
			}
		})
	}
}
