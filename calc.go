package orion

import (
	"fmt"

	"orion/internal/core"
	"orion/internal/power"
	"orion/internal/stats"
)

// EnergyReport lists the per-operation energies of one router's
// components, computed from the parameterized capacitance equations of the
// paper's Section 3 and Appendix. It makes the power models usable
// independently of the simulator, as the paper's released C models were
// ("either as a separate power analysis tool, or as a plug-in to other
// network simulators"); cmd/orion-power prints it.
type EnergyReport struct {
	// Buffer operation energies (Table 2); the write energies assume
	// α = 0.5 (Avg) and worst-case switching (Max).
	BufferReadJ     float64
	BufferWriteAvgJ float64
	BufferWriteMaxJ float64

	// Crossbar energies (Table 3): one flit traversal at α = 0.5, and
	// the control energy charged per grant.
	CrossbarTraversalAvgJ float64
	CrossbarCtrlJ         float64

	// Arbiter energies (Table 4) for one switch-allocator arbiter: an
	// output port's on crossbar routers, a fabric port's on
	// central-buffered routers.
	ArbiterGrantJ      float64
	ArbiterRequestAvgJ float64

	// Link energies: per-flit traversal at α = 0.5 for on-chip links,
	// constant power for chip-to-chip links.
	LinkTraversalAvgJ float64
	LinkConstantW     float64

	// Central buffer access energies (CentralBuffered routers only).
	CentralBufReadJ  float64
	CentralBufWriteJ float64

	// FlitEnergyJ is the Section 3.3 walkthrough total for one flit
	// crossing the router and its outgoing link:
	// E_flit = E_wrt + E_arb + E_read + E_xb + E_link.
	FlitEnergyJ float64

	// RouterAreaUm2 estimates the router's area as input buffers plus
	// switch fabric (Section 4.4).
	RouterAreaUm2 float64
}

// ComponentEnergies derives the energy report for the configuration's
// router without running a simulation. It reads the same power-model
// table a simulation of cfg charges its events to.
func ComponentEnergies(cfg Config) (*EnergyReport, error) {
	ccfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	m, err := core.NewPowerModels(ccfg.Router, ccfg.Link, ccfg.Tech, ccfg.ArbiterKind, ccfg.CrossbarKind)
	if err != nil {
		return nil, err
	}
	rep := &EnergyReport{
		BufferReadJ:        m.Buffer.ReadEnergy(),
		BufferWriteAvgJ:    m.Buffer.AvgWriteEnergy(),
		BufferWriteMaxJ:    m.Buffer.MaxWriteEnergy(),
		ArbiterGrantJ:      m.Arbiter.GrantEnergy(),
		ArbiterRequestAvgJ: m.Arbiter.AvgRequestEnergy(),
		LinkTraversalAvgJ:  m.Link.AvgTraversalEnergy(),
		LinkConstantW:      m.Link.ConstantPower(),
	}

	if cb := m.CentralBuffer; cb != nil {
		rep.CentralBufReadJ = cb.AvgReadEnergy()
		rep.CentralBufWriteJ = cb.AvgWriteEnergy()
		rep.RouterAreaUm2 = power.CBRouterAreaUm2(ccfg.Router.Ports, m.Buffer, cb)
	} else {
		rep.CrossbarTraversalAvgJ = m.Crossbar.AvgTraversalEnergy()
		rep.CrossbarCtrlJ = m.Crossbar.CtrlEnergy()
		rep.RouterAreaUm2 = power.XBRouterAreaUm2(ccfg.Router.Ports, ccfg.Router.VCs, m.Buffer, m.Crossbar)
	}
	// E_flit = E_wrt + E_arb + E_read + E_xb + E_link (Section 3.3); on a
	// central-buffered router the central buffer write and read take the
	// crossbar's place.
	rep.FlitEnergyJ = rep.BufferWriteAvgJ +
		(rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ) +
		rep.BufferReadJ + rep.CrossbarTraversalAvgJ + rep.CentralBufWriteJ + rep.CentralBufReadJ +
		rep.LinkTraversalAvgJ
	return rep, nil
}

// HeatmapString renders per-node power as a Width×Height grid with (0,0)
// at the bottom-left, like the paper's Figure 6 node labelling. Values are
// in watts.
func HeatmapString(res *Result, width, height int) (string, error) {
	if res == nil {
		return "", fmt.Errorf("orion: nil result")
	}
	return stats.Heatmap(res.NodePowerW, width, height, "%.4g")
}
