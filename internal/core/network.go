package core

import (
	"fmt"

	"orion/internal/fault"
	"orion/internal/flit"
	"orion/internal/power"
	"orion/internal/router"
	"orion/internal/sim"
	"orion/internal/stats"
	"orion/internal/tech"
	"orion/internal/traffic"
)

// Network is a fully assembled simulation: routers, links, sources, sinks,
// traffic generation, and power models hooked to the event bus.
type Network struct {
	cfg Config

	engine *sim.Engine
	// buses are the event buses, one per tick worker, so the hot path
	// stays lock-free; the per-bus counters merge at measurement
	// boundaries (eventCounts). A component's events always go to its own
	// node's shard bus, so per-component state behind the subscribers is
	// never shared across workers.
	buses   []*sim.Bus
	workers int
	meter   *stats.Meter
	account *stats.EnergyAccount
	gen     *traffic.Generator

	routers []router.Router
	sources []*router.Source
	sinks   []*router.Sink

	// Activity gates (active-set scheduler; see sim/gate.go), one per
	// module, indexed by node. All nil when gating is off (AlwaysTick) —
	// every consumer tolerates a nil gate. srcGates
	// is also the run loop's hook: the generator enqueuing a packet must
	// wake the source before the engine steps that cycle.
	srcGates  []*sim.Gate
	rtrGates  []*sim.Gate
	sinkGates []*sim.Gate

	sampler   *stats.LatencySampler
	constLink []float64
	staticW   [][stats.NumComponents]float64

	sampleInjected int
	sampleReceived int

	// measurement-window flit counters
	ejectedFlits  int64
	injectedFlits int64

	lastDeliveryCycle int64

	// Fault injection (nil unless cfg.Faults is set) and drop accounting.
	// sampleDropped counts sample packets whose head was discarded by a
	// LinkDrop fault: the run's delivery target shrinks accordingly, so a
	// lossy network still terminates.
	injector      *fault.Injector
	droppedFlits  int64
	sampleDropped int

	// checker is the runtime invariant checker (nil unless enabled).
	checker *Checker

	// run holds the measurement-protocol state (formerly RunContext
	// locals) so a run can be advanced in segments — StepTo for replay
	// restore, periodic snapshot hooks — without changing the protocol.
	run runState

	// Periodic snapshot hook: when snapEvery > 0, snapSink fires at each
	// cycle boundary divisible by snapEvery, before that cycle's tick.
	// Disabled (snapEvery == 0) it costs one integer compare per cycle
	// and no allocations.
	snapEvery int64
	snapSink  func(*Network) error
	lastSnap  int64

	// Wires and DVS controllers in deterministic creation order, walked
	// by state capture.
	dataWires []*sim.Wire[*flit.Flit]
	credWires []*sim.Wire[flit.Credit]
	dvsCtrls  []*power.DVSController
}

// shardOf maps a node to its tick worker. Shards are contiguous node
// ranges, so walking shards in index order visits nodes in node order.
func (n *Network) shardOf(node int) int { return node * n.workers / len(n.routers) }

// SetSnapshotHook installs a periodic snapshot sink invoked at every cycle
// divisible by every (before that cycle executes). every <= 0 disables the
// hook. The sink must not mutate simulator state.
func (n *Network) SetSnapshotHook(every int64, sink func(*Network) error) {
	if every <= 0 || sink == nil {
		n.snapEvery, n.snapSink = 0, nil
		return
	}
	n.snapEvery, n.snapSink = every, sink
}

// Build assembles a network from a validated configuration.
func Build(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	nodes := topo.Nodes()

	// Worker count and shard map. Node node's modules tick on worker
	// shardOf(node) and publish on buses[shardOf(node)]; shards are
	// contiguous node ranges so the merge order is fixed. Worker 0 is the
	// goroutine stepping the engine, so one worker is one shard with one
	// bus, ticked by the caller.
	workers := cfg.effectiveWorkers(nodes)
	buses := make([]*sim.Bus, workers)
	for i := range buses {
		buses[i] = &sim.Bus{}
	}

	engine := sim.NewEngine(workers, !cfg.AlwaysTick)
	account := stats.NewEnergyAccount(nodes)
	meter := stats.NewMeter(account)
	meter.SetFixedActivity(cfg.FixedActivity)

	n := &Network{
		cfg:       cfg,
		engine:    engine,
		buses:     buses,
		workers:   workers,
		meter:     meter,
		account:   account,
		routers:   make([]router.Router, nodes),
		sources:   make([]*router.Source, nodes),
		sinks:     make([]*router.Sink, nodes),
		sampler:   stats.NewLatencySampler(),
		constLink: make([]float64, nodes),
		staticW:   make([][stats.NumComponents]float64, nodes),
	}

	// With wraparound links, dimension-ordered routing needs deadlock
	// avoidance: bubble flow control by default, or dateline VC classes
	// when requested (see router.Config). DeadlockNone leaves plain
	// wormhole flow control.
	rcfg := cfg.Router
	rcfg.PortDim = make([]int, topo.Ports())
	for p := range rcfg.PortDim {
		rcfg.PortDim[p] = topo.DimOf(p)
	}
	if topo.Wraparound() {
		switch {
		case cfg.Deadlock == DeadlockNone:
		case rcfg.Kind == router.VirtualChannel && cfg.Deadlock == DeadlockDateline:
			rcfg.Dateline = true
		default:
			rcfg.Bubble = true
		}
	}

	if cfg.CheckInvariants {
		// Subscribe before the meter so occupancy tracking sees events in
		// the same order either way (the checker never mutates events, so
		// order is immaterial to results — this just keeps diagnostics
		// ahead of energy accounting on the failing event).
		n.checker = NewChecker(buses, nodes, rcfg)
	}

	for node := 0; node < nodes; node++ {
		var (
			r   router.Router
			err error
		)
		if rcfg.Kind == router.CentralBuffered {
			r, err = router.NewCB(node, rcfg, buses[n.shardOf(node)])
		} else {
			r, err = router.NewXB(node, rcfg, buses[n.shardOf(node)])
		}
		if err != nil {
			return nil, err
		}
		n.routers[node] = r
	}

	if cfg.Faults != nil {
		inj, err := fault.NewInjector(*cfg.Faults, nodes, topo.Ports())
		if err != nil {
			return nil, err
		}
		n.injector = inj
		for node := 0; node < nodes; node++ {
			if nf := inj.Node(node); nf != nil {
				n.routers[node].SetFaults(nf, n.onDrop)
			}
		}
	}

	// Activity gates. Router gates exist before wire() runs because link
	// wires need the consuming neighbour's gate as their waker; source
	// and sink gates are filled in by wire() as it creates the modules.
	// On an ungated engine NewGate returns nil and everything degrades to
	// always-tick.
	n.srcGates = make([]*sim.Gate, nodes)
	n.rtrGates = make([]*sim.Gate, nodes)
	n.sinkGates = make([]*sim.Gate, nodes)
	for node := 0; node < nodes; node++ {
		n.rtrGates[node] = engine.NewGate(n.routers[node])
	}

	if err := n.wire(); err != nil {
		return nil, err
	}
	if rcfg.Kind == router.VirtualChannel && rcfg.Bubble {
		if err := n.buildRings(); err != nil {
			return nil, err
		}
	}
	if err := n.registerPowerModels(); err != nil {
		return nil, err
	}
	// Hook the meter to every shard bus only after every component is
	// registered: the default fast path freezes the registration maps into
	// flat per-event-type tables, shared across all shard buses
	// (stats.Meter.AttachBuses); the reference path keeps the map-based
	// listener for cross-validation. The frozen tables reference the same
	// per-component power states on every bus, but each component's
	// events arrive only on its own node's shard bus, so no state is
	// touched from two workers.
	if cfg.ReferenceEventPath {
		for _, b := range buses {
			meter.AttachReference(b)
		}
	} else {
		meter.AttachBuses(buses...)
	}

	gen, err := traffic.NewGenerator(cfg.Traffic, topo)
	if err != nil {
		return nil, err
	}
	// Recycle retired packets through the generator's free list: a tail
	// ejection retires the whole packet (flits deliver in order), so
	// after onEject's observers run nothing references its allocations.
	// Fault injection breaks that ownership rule — drops retire packets
	// away from the sink — so it keeps the plain allocator.
	gen.SetRecycling(cfg.Faults == nil)
	n.gen = gen

	// Registration order: sources, then routers, each on its node's
	// shard (a node's modules mutate only that node's state and publish
	// only on its shard bus). The order does not affect results — all
	// cross-module communication is through one-cycle wires — but it is
	// the order a cycle's first module error is chosen in.
	//
	// The ordered phase runs on one goroutine in registration order, so
	// what it touches is touched in the same order at every worker
	// count. Bubble-ring VC routers run their shared-Ring updates and VC
	// allocation there, in node order. Sinks follow, in node order: their
	// ejection records feed Network-level state shared across nodes
	// (sampler, checker ledger, flow counters, the generator's free list).
	for node := 0; node < nodes; node++ {
		engine.Register(n.shardOf(node), n.sources[node], n.srcGates[node])
	}
	for node := 0; node < nodes; node++ {
		engine.Register(n.shardOf(node), n.routers[node], n.rtrGates[node])
	}
	for node := 0; node < nodes; node++ {
		if xb, ok := n.routers[node].(*router.XBRouter); ok && xb.DefersRings() {
			// The ordered phase shares the router's gate: Quiescent
			// covers TickOrdered, so a sleeping router's ordered
			// sub-phase is skipped along with its Tick.
			engine.RegisterOrdered(xb, n.rtrGates[node])
		}
	}
	for node := 0; node < nodes; node++ {
		engine.RegisterOrdered(n.sinks[node], n.sinkGates[node])
	}
	return n, nil
}

// Workers returns the resolved tick worker count (1 means one shard,
// ticked by the caller).
func (n *Network) Workers() int { return n.workers }

// eventCounts merges the per-shard bus counters into the single table a
// one-worker run produces (see stats.MergeCounts).
func (n *Network) eventCounts() [sim.NumEventTypes]int64 {
	return stats.MergeCounts(n.buses)
}

// wire creates all data and credit wires: one pair per directed
// inter-router link, plus injection and ejection wiring per node.
//
// Each wire joins the latch shard of its producer — the module whose Tick
// sends on it — so dirty-list enlistment on Send stays single-writer and
// each worker latches exactly the wires its own shard wrote (see
// sim.Engine.Connect).
func (n *Network) wire() error {
	topo := n.cfg.Topology
	rcfg := n.cfg.Router
	local := topo.Ports() - 1

	for node := 0; node < topo.Nodes(); node++ {
		for port := 0; port < local; port++ {
			neighbor, ok := topo.Neighbor(node, port)
			if !ok {
				continue // mesh edge
			}
			data := sim.NewWire[*flit.Flit](fmt.Sprintf("link %d.%d->%d", node, port, neighbor))
			credit := sim.NewLossyWire[flit.Credit](fmt.Sprintf("credit %d<-%d", node, neighbor))
			// node's router sends on data; neighbor's router returns the
			// credits. Each wire wakes its consumer's gate: the neighbour
			// receives the flit, this node receives the returning credit
			// (credits are lossy, so a sleeping consumer would silently
			// lose one — the waker is what keeps gating exact).
			data.SetWaker(n.rtrGates[neighbor])
			credit.SetWaker(n.rtrGates[node])
			n.engine.Connect(n.shardOf(node), data)
			n.engine.Connect(n.shardOf(neighbor), credit)
			n.dataWires = append(n.dataWires, data)
			n.credWires = append(n.credWires, credit)
			if err := n.routers[node].AttachOutput(port, data, credit, rcfg.BufferDepth, false); err != nil {
				return err
			}
			if err := n.routers[neighbor].AttachInput(topo.OppositePort(port), data, credit); err != nil {
				return err
			}
		}

		// Injection.
		inj := sim.NewWire[*flit.Flit](fmt.Sprintf("inject %d", node))
		injCred := sim.NewLossyWire[flit.Credit](fmt.Sprintf("inject-credit %d", node))
		// The source sends on inj, the router on injCred — both shard(node).
		inj.SetWaker(n.rtrGates[node])
		n.engine.Connect(n.shardOf(node), inj)
		n.engine.Connect(n.shardOf(node), injCred)
		n.dataWires = append(n.dataWires, inj)
		n.credWires = append(n.credWires, injCred)
		if err := n.routers[node].AttachInput(local, inj, injCred); err != nil {
			return err
		}
		src, err := router.NewSource(node, rcfg.VCs, rcfg.BufferDepth, inj, injCred)
		if err != nil {
			return err
		}
		n.sources[node] = src
		n.srcGates[node] = n.engine.NewGate(src)
		injCred.SetWaker(n.srcGates[node])

		// Ejection (immediate, Section 4.1). The sink consumes it in the
		// ordered phase, on the caller, while every worker is parked.
		eject := sim.NewWire[*flit.Flit](fmt.Sprintf("eject %d", node))
		n.engine.Connect(n.shardOf(node), eject)
		n.dataWires = append(n.dataWires, eject)
		if err := n.routers[node].AttachOutput(local, eject, nil, 0, true); err != nil {
			return err
		}
		sink, err := router.NewSink(node, eject, n.onEject)
		if err != nil {
			return err
		}
		n.sinks[node] = sink
		n.sinkGates[node] = n.engine.NewGate(sink)
		eject.SetWaker(n.sinkGates[node])
	}
	return nil
}

// buildRings creates one Ring occupancy accountant per unidirectional
// torus ring per VC and attaches every member input buffer and feeding
// output channel, enabling bubble flow control in virtual-channel routers.
// Rings are discovered generically by following each directed port's
// neighbour chain until it cycles back, so any wraparound topology
// (2-D torus, k-ary n-cube) is covered.
func (n *Network) buildRings() error {
	topo := n.cfg.Topology
	if !topo.Wraparound() {
		return nil
	}
	local := topo.Ports() - 1
	for port := 0; port < local; port++ {
		seen := make([]bool, topo.Nodes())
		for start := 0; start < topo.Nodes(); start++ {
			if seen[start] {
				continue
			}
			// Collect the cycle of nodes following this port.
			var cycle []int
			node := start
			for {
				if seen[node] {
					break
				}
				seen[node] = true
				cycle = append(cycle, node)
				next, ok := topo.Neighbor(node, port)
				if !ok {
					return fmt.Errorf("core: wraparound topology missing neighbour at node %d port %d", node, port)
				}
				node = next
			}
			if node != start {
				return fmt.Errorf("core: port %d does not form a ring from node %d", port, start)
			}
			inPort := topo.OppositePort(port)
			for v := 0; v < n.cfg.Router.VCs; v++ {
				ring, err := router.NewRing(len(cycle), n.cfg.Router.BufferDepth)
				if err != nil {
					return err
				}
				for m, member := range cycle {
					xb, ok := n.routers[member].(*router.XBRouter)
					if !ok {
						return fmt.Errorf("core: bubble rings need XB routers, node %d is %T", member, n.routers[member])
					}
					// The member's input buffer receives the ring's
					// channel; its output channel feeds the next
					// member's buffer.
					if err := xb.SetInputRing(inPort, v, ring, m); err != nil {
						return err
					}
					down := (m + 1) % len(cycle)
					if err := xb.SetOutputRing(port, v, ring, down); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Snapshot reports per-node source queue lengths and buffered flit counts,
// for diagnostics and tests.
func (n *Network) Snapshot() (sourceQueues, buffered []int) {
	sourceQueues = make([]int, len(n.sources))
	buffered = make([]int, len(n.routers))
	for i, s := range n.sources {
		sourceQueues[i] = s.QueuedFlits()
	}
	type bufCounter interface{ BufferedFlits() int }
	for i, r := range n.routers {
		if bc, ok := r.(bufCounter); ok {
			buffered[i] = bc.BufferedFlits()
		}
	}
	return sourceQueues, buffered
}

// Cycle returns the engine's current cycle.
func (n *Network) Cycle() int64 { return n.engine.Cycle() }

// Step advances the simulation one cycle outside the standard protocol
// (testing hook). sample tags new packets as measurement samples.
func (n *Network) Step(sample bool) error { return n.tick(sample) }

// onEject records delivered flits and sample-packet completion.
func (n *Network) onEject(f *flit.Flit, cycle int64) {
	if n.checker != nil {
		n.checker.OnEject(f, cycle)
	}
	n.lastDeliveryCycle = cycle
	if n.account.Recording() {
		n.ejectedFlits++
	}
	if f.Kind.IsTail() && f.Packet != nil && f.Packet.Sample {
		n.sampler.RecordPacket(f.Packet.CreatedAt, cycle, f.Packet.Length)
		n.sampleReceived++
	}
	// The tail flit is the packet's last observable moment: recycle its
	// allocations only after every observer above has run. No-op unless
	// the generator's free list is enabled.
	if f.Kind.IsTail() {
		n.gen.Recycle(f.Packet)
	}
}

// onDrop accounts a flit discarded by a LinkDrop fault. Dropped sample
// packets shrink the delivery target (they will never arrive), counted on
// the head flit so a packet dropped mid-body is not counted twice. A drop
// still counts as forward progress for the deadlock detector — the faulted
// link is consuming flits, the network is not wedged.
func (n *Network) onDrop(f *flit.Flit, cycle int64) {
	if n.checker != nil {
		n.checker.OnDrop(f, cycle)
	}
	n.lastDeliveryCycle = cycle
	n.droppedFlits++
	if f.Kind.IsHead() && f.Packet != nil && f.Packet.Sample {
		n.sampleDropped++
	}
}

// PowerModels is one router structure's power models. A network builds
// it once and registers every node's switching state against it; the
// standalone calculator (orion.ComponentEnergies) reads the same table,
// so the two report the same energies. Every model is immutable once its
// constructor returns, which is what makes sharing it across nodes safe.
type PowerModels struct {
	Buffer *power.BufferModel
	// Crossbar is nil on central-buffered routers; CentralBuffer is nil
	// on all others.
	Crossbar      *power.CrossbarModel
	CentralBuffer *power.CentralBufferModel
	Link          *power.LinkModel
	// Arbiter is the switch allocator's arbiter: on a crossbar router
	// each output's arbiter picks among the other ports-1 inputs, on a
	// central-buffered router each fabric port's among all ports.
	Arbiter *power.ArbiterModel
	// VCArbiter picks among one port's VCs (virtual-channel routers with
	// more than one VC, nil otherwise). With as many VCs as Arbiter has
	// requesters it is Arbiter itself: one model per requester count.
	VCArbiter *power.ArbiterModel
}

// NewPowerModels builds the power models of one router structure.
func NewPowerModels(rc router.Config, link power.LinkConfig, t tech.Params,
	arbKind power.ArbiterKind, xbKind power.CrossbarKind) (*PowerModels, error) {
	m := &PowerModels{}
	var err error
	m.Buffer, err = power.NewBuffer(power.BufferConfig{
		Flits:      rc.BufferDepth,
		FlitBits:   rc.FlitBits,
		ReadPorts:  1,
		WritePorts: 1,
	}, t)
	if err != nil {
		return nil, err
	}
	switchReqs := rc.Ports - 1
	if rc.Kind == router.CentralBuffered {
		switchReqs = rc.Ports
		m.CentralBuffer, err = power.NewCentralBuffer(power.CentralBufferConfig{
			Banks:      rc.CBBanks,
			Rows:       rc.CBRows,
			FlitBits:   rc.FlitBits,
			ReadPorts:  rc.CBReadPorts,
			WritePorts: rc.CBWritePorts,
		}, t)
	} else {
		m.Crossbar, err = power.NewCrossbar(power.CrossbarConfig{
			Kind:      xbKind,
			Inputs:    rc.Ports,
			Outputs:   rc.Ports,
			WidthBits: rc.FlitBits,
		}, t)
	}
	if err != nil {
		return nil, err
	}
	if m.Link, err = power.NewLink(link, t); err != nil {
		return nil, err
	}
	if m.Arbiter, err = power.NewArbiter(power.ArbiterConfig{Kind: arbKind, Requesters: switchReqs}, t); err != nil {
		return nil, err
	}
	if rc.Kind == router.VirtualChannel && rc.VCs > 1 {
		m.VCArbiter = m.Arbiter
		if rc.VCs != switchReqs {
			if m.VCArbiter, err = power.NewArbiter(power.ArbiterConfig{Kind: arbKind, Requesters: rc.VCs}, t); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// registerPowerModels registers every physical component's switching
// state with the meter, against the network's one PowerModels table, and
// computes per-node constant link power.
func (n *Network) registerPowerModels() error {
	cfg := n.cfg
	topo := cfg.Topology
	ports := cfg.Router.Ports
	local := ports - 1

	models, err := NewPowerModels(cfg.Router, cfg.Link, cfg.Tech, cfg.ArbiterKind, cfg.CrossbarKind)
	if err != nil {
		return err
	}

	// leak accumulates static power when leakage modelling is enabled
	// (an extension beyond the paper's dynamic-only models).
	leak := func(node int, c stats.Component, watts float64) {
		if cfg.IncludeLeakage {
			n.staticW[node][c] += watts
		}
	}
	arb := func(node int, class sim.EventType, stage, port int, a *power.ArbiterModel) {
		n.meter.RegisterArbiter(node, class, stage, port, a)
		leak(node, stats.CompArbiter, a.StaticPowerW())
	}

	for node := 0; node < topo.Nodes(); node++ {
		for p := 0; p < ports; p++ {
			for v := 0; v < cfg.Router.VCs; v++ {
				n.meter.RegisterBuffer(node, p, v, models.Buffer)
				leak(node, stats.CompBuffer, models.Buffer.StaticPowerW())
			}
		}

		switch cfg.Router.Kind {
		case router.CentralBuffered:
			n.meter.RegisterCentralBuffer(node, models.CentralBuffer)
			leak(node, stats.CompCentralBuffer, models.CentralBuffer.StaticPowerW())
			for wp := 0; wp < cfg.Router.CBWritePorts; wp++ {
				arb(node, sim.EvArbitration, sim.StageInput, wp, models.Arbiter)
			}
			for rp := 0; rp < cfg.Router.CBReadPorts; rp++ {
				arb(node, sim.EvArbitration, sim.StageOutput, rp, models.Arbiter)
			}

		default:
			n.meter.RegisterCrossbar(node, models.Crossbar)
			leak(node, stats.CompCrossbar, models.Crossbar.StaticPowerW())
			for o := 0; o < ports; o++ {
				arb(node, sim.EvArbitration, sim.StageOutput, o, models.Arbiter)
			}
			if cfg.Router.Kind == router.VirtualChannel {
				for p := 0; p < ports; p++ {
					if models.VCArbiter != nil {
						arb(node, sim.EvArbitration, sim.StageInput, p, models.VCArbiter)
						arb(node, sim.EvVCAllocation, sim.StageInput, p, models.VCArbiter)
					}
					arb(node, sim.EvVCAllocation, sim.StageOutput, p, models.Arbiter)
				}
			}
		}

		// One link per router port (the paper's chip-to-chip study
		// assumes a 3 W link on each of the five ports; on-chip links
		// dissipate per-traversal energy on the four network ports).
		linkCount := 1 // local port
		for p := 0; p < local; p++ {
			if _, ok := topo.Neighbor(node, p); ok {
				n.meter.RegisterLink(node, p, models.Link)
				leak(node, stats.CompLink, models.Link.StaticPowerW())
				if cfg.LinkDVS != nil {
					ctrl, err := power.NewDVSController(*cfg.LinkDVS)
					if err != nil {
						return err
					}
					n.meter.RegisterLinkDVS(node, p, ctrl)
					n.dvsCtrls = append(n.dvsCtrls, ctrl)
					if err := n.routers[node].SetGovernor(p, ctrl); err != nil {
						return err
					}
				}
				linkCount++
			}
		}
		n.constLink[node] = float64(linkCount) * models.Link.ConstantPower()
	}
	return nil
}

// Meter returns the network's power meter (testing hook).
func (n *Network) Meter() *stats.Meter { return n.meter }

// Router returns the node's router (testing hook).
func (n *Network) Router(node int) router.Router { return n.routers[node] }
