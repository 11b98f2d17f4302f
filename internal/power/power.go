// Package power implements the paper's Appendix A.1 energy model: per-gate
// static (leakage) and dynamic (switching) energy per clock cycle.
//
//	E_si = V_dd · w_i · I_off(V_TSi) / f_c                             (A1)
//	E_di = ½ · a_i · V_dd² · [ w_i(C_PD + (f_ii−1)·C_mi)
//	        + Σ_{j∈fanout} (w_ij·C_t + C_INT_ij) ]                     (A2)
//
// The short-circuit component is neglected, as in the paper (an order of
// magnitude below switching under typical slopes, ref [12]).
package power

import (
	"fmt"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/wiring"
)

// Breakdown splits an energy into its static and dynamic components (J).
type Breakdown struct {
	Static  float64 //cmosvet:unit J
	Dynamic float64 //cmosvet:unit J
}

// Total returns static + dynamic energy.
//
//cmosvet:unit return J
func (b Breakdown) Total() float64 { return b.Static + b.Dynamic }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Static += o.Static
	b.Dynamic += o.Dynamic
}

// Evaluator computes the energy of design points for one circuit under a
// fixed activity profile, wiring model and clock frequency.
type Evaluator struct {
	C    *circuit.Circuit
	Tech *device.Tech
	Act  *activity.Profile
	Wire *wiring.Model
	Fc   float64 // clock frequency //cmosvet:unit Hz

	cs *circuit.CSR
}

// New builds a power evaluator. The circuit must be combinational.
//
//cmosvet:unit fc Hz
func New(c *circuit.Circuit, tech *device.Tech, act *activity.Profile, wire *wiring.Model, fc float64) (*Evaluator, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("power: circuit %q is sequential; cut DFFs first", c.Name)
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if fc <= 0 {
		return nil, fmt.Errorf("power: clock frequency %v must be positive", fc)
	}
	if len(act.Prob) != c.N() || len(act.Density) != c.N() {
		return nil, fmt.Errorf("power: activity profile sized %d, circuit has %d gates", len(act.Density), c.N())
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	return &Evaluator{C: c, Tech: tech, Act: act, Wire: wire, Fc: fc, cs: cs}, nil
}

// GateEnergy returns the per-cycle energy breakdown of one logic gate under
// the assignment. Input gates consume nothing.
func (e *Evaluator) GateEnergy(id int, a *design.Assignment) Breakdown {
	if !e.C.Gate(id).IsLogic() {
		return Breakdown{}
	}
	return e.GateEnergyCoeff(id, a, e.Tech.IoffUnit(a.Vts[id]))
}

// GateEnergyCoeff is GateEnergy with the gate's leakage coefficient
// I_off(V_TS) supplied by the caller — the entry point for evaluation engines
// that cache the per-(V_dd, V_TS) device coefficients (see internal/eval).
//
//cmosvet:unit ioff A
func (e *Evaluator) GateEnergyCoeff(id int, a *design.Assignment, ioff float64) Breakdown {
	g := e.C.Gate(id)
	if !g.IsLogic() {
		return Breakdown{}
	}
	w := a.W[id]
	vdd := a.VddAt(id) // per-gate supply in multi-Vdd designs

	static := vdd * w * ioff / e.Fc

	// The output swings to the gate's own rail, so the charge comes from it.
	load := e.OutputLoad(id, a)
	fii := g.NumFanin()
	internal := w * (e.Tech.CPD + float64(fii-1)*e.Tech.Cmi)
	dynamic := 0.5 * e.Act.Density[id] * vdd * vdd * (internal + load)

	return Breakdown{Static: static, Dynamic: dynamic}
}

// OutputLoad returns the capacitance external to the gate at its output node:
// fanout gate inputs, interconnect, and the module load on primary outputs.
//
//cmosvet:unit return F
func (e *Evaluator) OutputLoad(id int, a *design.Assignment) float64 {
	cb := e.Wire.BranchCapNet(id) // the net this gate drives
	load := 0.0
	for _, f := range e.cs.Fanouts(int32(id)) {
		load += a.W[f]*e.Tech.Ct + cb
	}
	if e.cs.IsPO[id] {
		load += e.Tech.COut + cb
	}
	return load
}

// Total returns the whole-network per-cycle energy breakdown (the paper's
// cost function Σ E_si + E_di).
func (e *Evaluator) Total(a *design.Assignment) Breakdown {
	var sum Breakdown
	for i := range e.C.Gates {
		sum.Add(e.GateEnergy(i, a))
	}
	return sum
}

// Power converts a per-cycle energy into average power at the evaluator's
// clock frequency: J·Hz composes to W.
//
//cmosvet:unit return W
func (e *Evaluator) Power(b Breakdown) float64 { return b.Total() * e.Fc }
