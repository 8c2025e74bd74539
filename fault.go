package orion

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"orion/internal/fault"
)

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// FaultLinkStall blocks an inter-router link for the fault window:
	// flits wait in upstream buffers, adding latency through
	// backpressure. A permanent stall can starve routes entirely (the run
	// then fails with ErrDeadlock wrapping ErrFaulted).
	FaultLinkStall FaultKind = iota
	// FaultLinkDrop discards traffic at a link. Drops are packet-granular
	// — a packet whose head flit meets the fault window is swallowed
	// whole, with credits returned and every flit accounted in
	// Result.Faults — so downstream routers stay consistent.
	FaultLinkDrop
	// FaultPortStall freezes a router input port: its buffered flits stop
	// bidding for the switch during the window.
	FaultPortStall
	// FaultBitFlip corrupts flits in transit: each flit crossing the
	// faulted link is hit with probability Rate, flipping one random
	// payload bit. Corruption perturbs the Hamming-distance switching
	// activity that drives downstream buffer/crossbar energy.
	FaultBitFlip
)

// Fault schedules one fault at a router port.
type Fault struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Node is the afflicted router.
	Node int
	// Port is the router port: the output link for link faults and bit
	// flips, the input port for port stalls. Ports follow the topology
	// convention (2-D: 0 east, 1 west, 2 north, 3 south); the local
	// injection/ejection port cannot be faulted.
	Port int
	// Start is the first faulty cycle (absolute simulation cycle,
	// warm-up included).
	Start int64
	// Duration is the window length in cycles; <= 0 means permanent.
	Duration int64
	// Rate is the per-flit corruption probability of a FaultBitFlip,
	// in (0, 1].
	Rate float64
}

// FaultsConfig is a deterministic fault schedule: identical schedules on
// identical configurations reproduce bit-identical results.
type FaultsConfig struct {
	// Seed drives bit-flip positions and per-flit corruption draws.
	Seed int64
	// Faults are the scheduled faults.
	Faults []Fault
}

// FaultStats reports a schedule's observable effects over one run.
type FaultStats struct {
	// DroppedPackets and DroppedFlits count traffic discarded by
	// FaultLinkDrop faults.
	DroppedPackets, DroppedFlits int64
	// FlippedFlits and FlippedBits count FaultBitFlip corruptions.
	FlippedFlits, FlippedBits int64
	// StalledLinkCycles counts cycles a FaultLinkStall blocked a link
	// that traffic wanted; StalledPortCycles likewise for port stalls.
	StalledLinkCycles, StalledPortCycles int64
}

// toInternal translates the public schedule for internal/core.
func (c *FaultsConfig) toInternal() *fault.Config {
	if c == nil {
		return nil
	}
	out := &fault.Config{Seed: c.Seed, Faults: make([]fault.Fault, len(c.Faults))}
	for i, f := range c.Faults {
		out.Faults[i] = fault.Fault{
			Kind: fault.Kind(f.Kind), Node: f.Node, Port: f.Port,
			Start: f.Start, Duration: f.Duration, Rate: f.Rate,
		}
	}
	return out
}

func faultStatsFromInternal(s fault.Stats) FaultStats {
	return FaultStats{
		DroppedPackets: s.DroppedPackets, DroppedFlits: s.DroppedFlits,
		FlippedFlits: s.FlippedFlits, FlippedBits: s.FlippedBits,
		StalledLinkCycles: s.StalledLinkCycles, StalledPortCycles: s.StalledPortCycles,
	}
}

// RandomLinkFaults builds n faults of the given kind on links picked
// uniformly (without replacement while n allows) from the configuration's
// topology, deterministically from seed. Use it to study degraded-network
// curves without hand-picking links:
//
//	cfg.Faults = &orion.FaultsConfig{
//		Seed:   1,
//		Faults: must(orion.RandomLinkFaults(cfg, 1, 3, orion.FaultLinkStall, 0, 0, 0)),
//	}
func RandomLinkFaults(cfg Config, seed int64, n int, kind FaultKind, start, duration int64, rate float64) ([]Fault, error) {
	ccfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	topo := ccfg.Topology
	var links [][2]int
	for node := 0; node < topo.Nodes(); node++ {
		for port := 0; port < topo.Ports()-1; port++ {
			if _, ok := topo.Neighbor(node, port); ok {
				links = append(links, [2]int{node, port})
			}
		}
	}
	fs, err := fault.RandomLinks(seed, links, n, fault.Kind(kind), start, duration, rate)
	if err != nil {
		return nil, err
	}
	out := make([]Fault, len(fs))
	for i, f := range fs {
		out[i] = Fault{
			Kind: FaultKind(f.Kind), Node: f.Node, Port: f.Port,
			Start: f.Start, Duration: f.Duration, Rate: f.Rate,
		}
	}
	return out, nil
}

// ParseFaultSpec parses a comma-separated list of fault descriptions, each
// of the form
//
//	kind:node:port[:start[:duration[:rate]]]
//
// where kind is link-stall, link-drop, port-stall or bit-flip, duration 0
// means permanent, and rate is the per-flit probability of a bit-flip.
// It is the textual form behind the CLIs' -faults flag:
//
//	orion -faults "link-stall:3:1,bit-flip:0:2:1000:500:0.01" ...
func ParseFaultSpec(spec string) ([]Fault, error) {
	var out []Fault
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.Split(tok, ":")
		if len(parts) < 3 || len(parts) > 6 {
			return nil, fmt.Errorf("orion: fault %q: want kind:node:port[:start[:duration[:rate]]]", tok)
		}
		kind, ok := faultKindText.parse[parts[0]]
		if !ok {
			return nil, fmt.Errorf("orion: fault %q: unknown kind %q", tok, parts[0])
		}
		f := Fault{Kind: kind}
		fields := []struct {
			name string
			dst  *int64
		}{{"node", nil}, {"port", nil}, {"start", &f.Start}, {"duration", &f.Duration}}
		var node, port int64
		fields[0].dst, fields[1].dst = &node, &port
		for i, fd := range fields {
			if i+1 >= len(parts) {
				break
			}
			v, err := strconv.ParseInt(parts[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("orion: fault %q: bad %s %q", tok, fd.name, parts[i+1])
			}
			*fd.dst = v
		}
		f.Node, f.Port = int(node), int(port)
		if len(parts) == 6 {
			v, err := strconv.ParseFloat(parts[5], 64)
			if err != nil {
				return nil, fmt.Errorf("orion: fault %q: bad rate %q", tok, parts[5])
			}
			f.Rate = v
		}
		out = append(out, f)
	}
	return out, nil
}

// InvariantMode controls the runtime invariant checker (see DESIGN.md
// "Runtime invariants"): conservation, buffer-occupancy and delivery-order
// violations abort a run with an *InvariantError instead of corrupting
// results. The checker observes the event stream without mutating it, so
// enabling it never changes results — only whether a buggy run fails fast.
type InvariantMode int

const (
	// InvariantAuto (default) enables the checker under `go test`
	// (testing.Testing()) and disables it otherwise; the ORION_INVARIANTS
	// environment variable ("1"/"on" or "0"/"off") overrides both.
	InvariantAuto InvariantMode = iota
	// InvariantOn always checks (per-event bookkeeping cost).
	InvariantOn
	// InvariantOff never checks (production hot path).
	InvariantOff
)

// enabled resolves the mode to a concrete on/off decision.
func (m InvariantMode) enabled() bool {
	switch m {
	case InvariantOn:
		return true
	case InvariantOff:
		return false
	}
	switch os.Getenv("ORION_INVARIANTS") {
	case "1", "on", "true":
		return true
	case "0", "off", "false":
		return false
	}
	return testing.Testing()
}
