// Package delay implements the paper's Appendix A.2 transregional gate-delay
// model and static timing analysis on top of it.
//
// The worst-case propagation delay of gate i is the sum of four components
// (Eq. A3):
//
//	t_di = [½ − (1 − V_TSi/V_dd)/(1+α)] · max_{j∈fanin} t_dij     input slope
//	     + V_dd·C_load / (2·[w_i·I_Dw − f_ii·w_i·I_off])          switching
//	     + max_{j∈fanout} [R_INT·(w_ij·C_t + C_INT) + L_INT/v]    interconnect
//	     + (f_ii−1)·C_mi·V_dd / (2·w_i·I_Dw)                      series stack
//
// where I_Dw is the transregional drain current per unit width at
// V_GS = V_dd. Because I_Dw is valid below threshold, the model admits
// subthreshold operating points (V_dd ≤ V_TS), the paper's route to very low
// supply voltages when timing is loose.
package delay

import (
	"fmt"
	"math"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/wiring"
)

// Evaluator computes gate delays and arrival times for one circuit.
type Evaluator struct {
	C    *circuit.Circuit
	Tech *device.Tech
	Wire *wiring.Model

	cs *circuit.CSR
}

// New builds a delay evaluator. The circuit must be combinational.
func New(c *circuit.Circuit, tech *device.Tech, wire *wiring.Model) (*Evaluator, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("delay: circuit %q is sequential; cut DFFs first", c.Name)
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	return &Evaluator{C: c, Tech: tech, Wire: wire, cs: cs}, nil
}

// SlopeCoeff returns the input-rise-time coefficient
// ½ − (1 − V_TS/V_dd)/(1+α), clamped to [0, 1].
//
//cmosvet:hotpath
func (e *Evaluator) SlopeCoeff(vdd, vts float64) float64 {
	k := 0.5 - (1-vts/vdd)/(1+e.Tech.Alpha)
	if k < 0 {
		return 0
	}
	if k > 1 {
		return 1
	}
	return k
}

// Coeffs bundles the per-(V_dd, V_TS) device quantities of the delay and
// energy models: they depend on the voltage pair only, not on the gate, so an
// evaluation engine can compute them once per operating point and reuse them
// across every gate call (see internal/eval). CoeffsAt is the sole producer.
type Coeffs struct {
	Slope float64 // input-slope coefficient ½ − (1 − V_TS/V_dd)/(1+α), clamped to [0,1]
	Idw   float64 // transregional drive current I_Dw per unit width at V_GS = V_dd
	Ioff  float64 // off-state leakage I_off(V_TS) per unit width
}

// CoeffsAt computes the device coefficients of one (V_dd, V_TS) operating
// point — the three transcendental evaluations every gate-delay call needs.
//
//cmosvet:hotpath
func (e *Evaluator) CoeffsAt(vdd, vts float64) Coeffs {
	return Coeffs{
		Slope: e.SlopeCoeff(vdd, vts),
		Idw:   e.Tech.IdUnit(vdd, vts),
		Ioff:  e.Tech.IoffUnit(vts),
	}
}

// GateDelayWith returns t_di for a logic gate given the largest gate delay
// among its drivers (the t_dij term). It returns +Inf when the operating
// point cannot switch the gate (leakage of the off stacks exceeds the drive
// current). Input gates have zero delay.
//
//cmosvet:hotpath
func (e *Evaluator) GateDelayWith(id int, a *design.Assignment, maxFaninDelay float64) float64 {
	vdd := a.VddAt(id)
	return e.GateDelayAt(id, a, a.W[id], -1, 0, maxFaninDelay, e.CoeffsAt(vdd, a.Vts[id]))
}

// GateDelayAt is the width-override evaluation entry point: t_di of gate id
// computed with an explicit width w for the gate itself (which need not equal
// a.W[id]) and, when ov ≥ 0, width wOv substituted for gate ov wherever it
// loads this gate's output. The device coefficients k must come from CoeffsAt
// (or a cache of it) for this gate's (V_dd, V_TS) pair. Optimizers use this to
// probe "what if this width changed" without mutating the assignment.
//
// GateDelayAt is the one-call form and the bitwise reference of the model.
// Procedure 2's width passes (internal/eval's width kernel) evaluate a gate
// at many widths and form the same delay from the same exported term
// helpers below, split around the gate's own width.
//
//cmosvet:hotpath
func (e *Evaluator) GateDelayAt(id int, a *design.Assignment, w float64, ov int, wOv, maxFaninDelay float64, k Coeffs) float64 {
	cs := e.cs
	if !cs.IsLogic[id] {
		return 0
	}
	// Per-gate supply in multi-Vdd designs. The gate drive uses its own
	// rail as the input swing; under the no-low-drives-high clustering rule
	// the true input swing is at least that, so this is (conservatively)
	// correct.
	vdd := a.VddAt(id)
	t := e.Tech

	fii := float64(cs.NumFanin(int32(id)))

	drive, stalled := NetDrive(k, fii)
	if stalled {
		return math.Inf(1)
	}

	// Slope component.
	td := SlopeTerm(k, maxFaninDelay)

	// Switching component: total output load over net drive current.
	load := w * t.CPD
	cb := e.Wire.BranchCap()
	fo := cs.Fanouts(int32(id))
	for _, f := range fo {
		wf := a.W[f]
		if int(f) == ov {
			wf = wOv
		}
		load += BranchLoad(wf, t.Ct, cb)
	}
	if cs.IsPO[id] {
		load += POLoad(t.COut, cb)
	}
	td += SwitchingTerm(vdd, load, w, drive)

	// Interconnect component: worst fanout branch RC plus time of flight.
	rb, fl := e.Wire.BranchRes(), e.Wire.FlightTime()
	worst := 0.0
	for _, f := range fo {
		wf := a.W[f]
		if int(f) == ov {
			wf = wOv
		}
		if b := BranchDelay(rb, BranchLoad(wf, t.Ct, cb), fl); b > worst {
			worst = b
		}
	}
	if cs.IsPO[id] {
		if b := BranchDelay(rb, POLoad(t.COut, cb), fl); b > worst {
			worst = b
		}
	}
	td += worst

	// Series-stack component: charging f_ii−1 intermediate nodes.
	if fii > 1 {
		td += StackTerm(StackCharge(fii, t.Cmi, vdd), w, k.Idw)
	}
	return td
}

// The Eq. A3 terms. GateDelayAt and the width kernel (internal/eval) both
// build the delay from these helpers, so the two share one formula and
// round identically. Each takes scalars, so a caller that hoists the
// technology constants out of a loop passes the same values.

// NetDrive returns the net drive current per unit width, I_Dw − f_ii·I_off,
// and whether the operating point stalls the gate (the off stacks' leakage
// matches or exceeds the drive, or there is no drive at all).
//
//cmosvet:hotpath
func NetDrive(k Coeffs, fii float64) (drive float64, stalled bool) {
	drive = k.Idw - fii*k.Ioff
	return drive, drive <= 0 || k.Idw <= 0
}

// SlopeTerm is the input-slope component k_slope · max_j t_dij. The
// conversion rounds the product on its own, so a compiler that fuses
// multiply-adds cannot fold it into the next addition in one caller and not
// in another.
//
//cmosvet:hotpath
func SlopeTerm(k Coeffs, maxFaninDelay float64) float64 {
	return float64(k.Slope * maxFaninDelay)
}

// BranchLoad is the load one fanout branch puts on the driver: the fanout
// gate's input capacitance w_f·C_t plus the branch wire C_INT.
//
//cmosvet:hotpath
func BranchLoad(wf, ct, cb float64) float64 { return wf*ct + cb }

// POLoad is the load of a primary output's external branch: C_out plus the
// branch wire C_INT.
//
//cmosvet:hotpath
func POLoad(cout, cb float64) float64 { return cout + cb }

// BranchDelay is one fanout branch's interconnect delay: R_INT times the
// branch load plus the time of flight.
//
//cmosvet:hotpath
func BranchDelay(rb, load, fl float64) float64 { return rb*load + fl }

// SwitchingTerm is the switching component V_dd·C_load / (2·w·drive).
//
//cmosvet:hotpath
func SwitchingTerm(vdd, load, w, drive float64) float64 { return vdd * load / (2 * w * drive) }

// StackCharge is the series-stack numerator (f_ii−1)·C_mi·V_dd: the charge
// of the intermediate nodes.
//
//cmosvet:hotpath
func StackCharge(fii, cmi, vdd float64) float64 { return (fii - 1) * cmi * vdd }

// StackTerm is the series-stack component: charge q over 2·w·I_Dw.
//
//cmosvet:hotpath
func StackTerm(q, w, idw float64) float64 { return q / (2 * w * idw) }

// Delays returns the per-gate delay t_di for the whole network, computed in
// topological order so each gate sees its drivers' final delays.
func (e *Evaluator) Delays(a *design.Assignment) []float64 {
	td := make([]float64, e.C.N())
	for _, id := range e.cs.Order {
		g := &e.C.Gates[id]
		if !g.IsLogic() {
			continue
		}
		maxIn := 0.0
		for _, f := range g.Fanin {
			if td[f] > maxIn {
				maxIn = td[f]
			}
		}
		td[id] = e.GateDelayWith(int(id), a, maxIn)
	}
	return td
}

// Arrivals returns per-gate worst arrival times and per-gate delays.
func (e *Evaluator) Arrivals(a *design.Assignment) (arr, td []float64) {
	td = e.Delays(a)
	arr = make([]float64, e.C.N())
	for _, id := range e.cs.Order {
		g := &e.C.Gates[id]
		maxIn := 0.0
		for _, f := range g.Fanin {
			if arr[f] > maxIn {
				maxIn = arr[f]
			}
		}
		arr[id] = maxIn + td[id]
	}
	return arr, td
}

// CriticalDelay returns the worst path delay from any input to any primary
// output.
func (e *Evaluator) CriticalDelay(a *design.Assignment) float64 {
	arr, _ := e.Arrivals(a)
	worst := 0.0
	for _, id := range e.C.POs {
		if arr[id] > worst {
			worst = arr[id]
		}
	}
	return worst
}

// CriticalPath returns the gate IDs of a worst path (inputs included, in
// input-to-output order) and its delay.
func (e *Evaluator) CriticalPath(a *design.Assignment) ([]int, float64) {
	arr, _ := e.Arrivals(a)
	worstID, worst := -1, math.Inf(-1)
	for _, id := range e.C.POs {
		if arr[id] > worst {
			worst, worstID = arr[id], id
		}
	}
	if worstID < 0 {
		return nil, 0
	}
	var rev []int
	for id := worstID; ; {
		rev = append(rev, id)
		g := e.C.Gate(id)
		if len(g.Fanin) == 0 {
			break
		}
		next, best := g.Fanin[0], math.Inf(-1)
		for _, f := range g.Fanin {
			if arr[f] > best {
				best, next = arr[f], f
			}
		}
		id = int(next)
	}
	// Reverse to input-to-output order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, worst
}

// Slacks runs a full required-time analysis against the cycle budget T:
// slack[i] = required[i] − arrival[i], where required times propagate
// backward from T at every primary output. Negative slack marks gates on
// violating paths; the minimum slack equals T − CriticalDelay.
func (e *Evaluator) Slacks(a *design.Assignment, T float64) []float64 {
	arr, td := e.Arrivals(a)
	req := make([]float64, e.C.N())
	for i := range req {
		req[i] = math.Inf(1)
	}
	for _, id := range e.C.POs {
		if T < req[id] {
			req[id] = T
		}
	}
	for i := len(e.cs.Order) - 1; i >= 0; i-- {
		id := e.cs.Order[i]
		for _, f := range e.cs.Fanouts(id) {
			if r := req[f] - td[f]; r < req[id] {
				req[id] = r
			}
		}
	}
	slack := make([]float64, e.C.N())
	for i := range slack {
		slack[i] = req[i] - arr[i]
	}
	return slack
}
