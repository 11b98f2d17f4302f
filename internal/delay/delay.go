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
//cmosvet:unit vdd V
//cmosvet:unit vts V
//cmosvet:unit return 1
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
	Slope float64 // input-slope coefficient ½ − (1 − V_TS/V_dd)/(1+α), clamped to [0,1] //cmosvet:unit 1
	Idw   float64 // transregional drive current I_Dw per unit width at V_GS = V_dd //cmosvet:unit A
	Ioff  float64 // off-state leakage I_off(V_TS) per unit width //cmosvet:unit A
}

// CoeffsAt computes the device coefficients of one (V_dd, V_TS) operating
// point — the three transcendental evaluations every gate-delay call needs.
//
//cmosvet:hotpath
//cmosvet:unit vdd V
//cmosvet:unit vts V
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
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
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
//cmosvet:hotpath
//cmosvet:unit w 1
//cmosvet:unit wOv 1
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
func (e *Evaluator) GateDelayAt(id int, a *design.Assignment, w float64, ov int, wOv, maxFaninDelay float64, k Coeffs) float64 {
	g := e.C.Gate(id)
	if !g.IsLogic() {
		return 0
	}
	// Per-gate supply in multi-Vdd designs. The gate drive uses its own
	// rail as the input swing; under the no-low-drives-high clustering rule
	// the true input swing is at least that, so this is (conservatively)
	// correct.
	vdd := a.VddAt(id)
	t := e.Tech

	fii := float64(g.NumFanin())

	drive := k.Idw - fii*k.Ioff
	if drive <= 0 || k.Idw <= 0 {
		return math.Inf(1)
	}

	// Slope component.
	td := k.Slope * maxFaninDelay

	// Switching component: total output load over net drive current. The
	// wire contribution is this gate's own net (per-net after SampleNets).
	load := w * t.CPD
	cb := e.Wire.BranchCapNet(id)
	for _, f := range g.Fanout {
		wf := a.W[f]
		if int(f) == ov {
			wf = wOv
		}
		load += wf*t.Ct + cb
	}
	if e.cs.IsPO[id] {
		load += t.COut + cb
	}
	td += vdd * load / (2 * w * drive)

	// Interconnect component: worst fanout branch RC plus time of flight.
	rb := e.Wire.BranchResNet(id)
	fl := e.Wire.FlightTimeNet(id)
	worst := 0.0
	for _, f := range g.Fanout {
		wf := a.W[f]
		if int(f) == ov {
			wf = wOv
		}
		if b := rb*(wf*t.Ct+cb) + fl; b > worst {
			worst = b
		}
	}
	if e.cs.IsPO[id] {
		if b := rb*(t.COut+cb) + fl; b > worst {
			worst = b
		}
	}
	td += worst

	// Series-stack component: charging f_ii−1 intermediate nodes.
	if fii > 1 {
		td += (fii - 1) * t.Cmi * vdd / (2 * w * k.Idw)
	}
	return td
}

// Delays returns the per-gate delay t_di for the whole network, computed in
// topological order so each gate sees its drivers' final delays.
//
//cmosvet:unit return s
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
//
//cmosvet:unit return1 s
//cmosvet:unit return2 s
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
//
//cmosvet:unit return s
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
//
//cmosvet:unit return2 s
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
//
//cmosvet:unit T s
//cmosvet:unit return s
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
		g := &e.C.Gates[id]
		for _, f := range g.Fanout {
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

// MeetsBudgets reports whether every gate's delay is within its per-gate
// budget (+Inf budgets always pass; Input gates are skipped).
//
//cmosvet:unit budget s
func (e *Evaluator) MeetsBudgets(a *design.Assignment, budget []float64) bool {
	td := e.Delays(a)
	for i := range e.C.Gates {
		if !e.C.Gates[i].IsLogic() {
			continue
		}
		if td[i] > budget[i] {
			return false
		}
	}
	return true
}
