package orion

import (
	"fmt"

	"orion/internal/power"
	"orion/internal/router"
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

	// Arbiter energies (Table 4) for one output-port arbiter.
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
// router without running a simulation.
func ComponentEnergies(cfg Config) (*EnergyReport, error) {
	ccfg, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	t := ccfg.Tech
	rep := &EnergyReport{}

	buf, err := power.NewBuffer(power.BufferConfig{
		Flits:      ccfg.Router.BufferDepth,
		FlitBits:   ccfg.Router.FlitBits,
		ReadPorts:  1,
		WritePorts: 1,
	}, t)
	if err != nil {
		return nil, err
	}
	rep.BufferReadJ = buf.ReadEnergy()
	rep.BufferWriteAvgJ = buf.AvgWriteEnergy()
	rep.BufferWriteMaxJ = buf.MaxWriteEnergy()

	arb, err := power.NewArbiter(power.ArbiterConfig{
		Kind:       ccfg.ArbiterKind,
		Requesters: ccfg.Router.Ports - 1,
	}, t)
	if err != nil {
		return nil, err
	}
	rep.ArbiterGrantJ = arb.GrantEnergy()
	rep.ArbiterRequestAvgJ = arb.RequestEnergy((ccfg.Router.Ports - 1) / 2)

	lnk, err := power.NewLink(ccfg.Link, t)
	if err != nil {
		return nil, err
	}
	rep.LinkTraversalAvgJ = lnk.AvgTraversalEnergy()
	rep.LinkConstantW = lnk.ConstantPower()

	switch ccfg.Router.Kind {
	case router.CentralBuffered:
		cb, err := power.NewCentralBuffer(power.CentralBufferConfig{
			Banks:      ccfg.Router.CBBanks,
			Rows:       ccfg.Router.CBRows,
			FlitBits:   ccfg.Router.FlitBits,
			ReadPorts:  ccfg.Router.CBReadPorts,
			WritePorts: ccfg.Router.CBWritePorts,
		}, t)
		if err != nil {
			return nil, err
		}
		f := ccfg.Router.FlitBits
		rep.CentralBufReadJ = cb.Bank.ReadEnergy() + cb.OutXbar.AvgTraversalEnergy() +
			cb.Regs.LatchEnergy(f, f/2)
		rep.CentralBufWriteJ = cb.Bank.WriteEnergy(f/2, f/2) + cb.InXbar.AvgTraversalEnergy() +
			cb.Regs.LatchEnergy(f, f/2)
		rep.RouterAreaUm2 = power.CBRouterAreaUm2(ccfg.Router.Ports, buf, cb)
		rep.FlitEnergyJ = rep.BufferWriteAvgJ + rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ +
			rep.BufferReadJ + rep.CentralBufWriteJ + rep.CentralBufReadJ + rep.LinkTraversalAvgJ

	default:
		xb, err := power.NewCrossbar(power.CrossbarConfig{
			Kind:      ccfg.CrossbarKind,
			Inputs:    ccfg.Router.Ports,
			Outputs:   ccfg.Router.Ports,
			WidthBits: ccfg.Router.FlitBits,
		}, t)
		if err != nil {
			return nil, err
		}
		rep.CrossbarTraversalAvgJ = xb.AvgTraversalEnergy()
		rep.CrossbarCtrlJ = xb.CtrlEnergy()
		rep.RouterAreaUm2 = power.XBRouterAreaUm2(ccfg.Router.Ports, ccfg.Router.VCs, buf, xb)
		// E_flit = E_wrt + E_arb + E_read + E_xb + E_link (Section 3.3).
		rep.FlitEnergyJ = rep.BufferWriteAvgJ +
			(rep.ArbiterGrantJ + rep.ArbiterRequestAvgJ + rep.CrossbarCtrlJ) +
			rep.BufferReadJ + rep.CrossbarTraversalAvgJ + rep.LinkTraversalAvgJ
	}
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
