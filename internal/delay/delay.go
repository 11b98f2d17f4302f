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

	cs        *circuit.CSR
	maxFanout int // sizes Prepared load scratch
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
	maxFanout := 0
	for id := range int32(cs.N()) {
		maxFanout = max(maxFanout, cs.NumFanout(id))
	}
	return &Evaluator{C: c, Tech: tech, Wire: wire, cs: cs, maxFanout: maxFanout}, nil
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
// GateDelayAt is the one-call form and the bitwise reference of the model; a
// search that evaluates one gate at many widths prepares it once instead
// (Prepare, Prepared.At), which splits the same per-term helpers around the
// gate's own width.
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

	drive, stalled := netDrive(k, fii)
	if stalled {
		return math.Inf(1)
	}

	// Slope component.
	td := slopeTerm(k, maxFaninDelay)

	// Switching component: total output load over net drive current. The
	// wire contribution is this gate's own net (per-net after SampleNets).
	load := w * t.CPD
	cb := e.Wire.BranchCapNet(id)
	for _, f := range g.Fanout {
		wf := a.W[f]
		if int(f) == ov {
			wf = wOv
		}
		load += branchLoad(t, wf, cb)
	}
	if e.cs.IsPO[id] {
		load += poLoad(t, cb)
	}
	td += switchingTerm(vdd, load, w, drive)

	// Interconnect component: worst fanout branch RC plus time of flight.
	rb := e.Wire.BranchResNet(id)
	fl := e.Wire.FlightTimeNet(id)
	worst := 0.0
	for _, f := range g.Fanout {
		wf := a.W[f]
		if int(f) == ov {
			wf = wOv
		}
		if b := branchDelay(rb, branchLoad(t, wf, cb), fl); b > worst {
			worst = b
		}
	}
	if e.cs.IsPO[id] {
		if b := branchDelay(rb, poLoad(t, cb), fl); b > worst {
			worst = b
		}
	}
	td += worst

	// Series-stack component: charging f_ii−1 intermediate nodes.
	if fii > 1 {
		td += stackTerm(stackCharge(t, fii, vdd), w, k.Idw)
	}
	return td
}

// The Eq. A3 terms. GateDelayAt and the prepared form (Prepare, At) both
// build the delay from these helpers, so the two share one formula and
// round identically.

// netDrive returns the net drive current per unit width, I_Dw − f_ii·I_off,
// and whether the operating point stalls the gate (the off stacks' leakage
// matches or exceeds the drive, or there is no drive at all).
//
//cmosvet:unit fii 1
//cmosvet:unit return1 A
func netDrive(k Coeffs, fii float64) (drive float64, stalled bool) {
	drive = k.Idw - fii*k.Ioff
	return drive, drive <= 0 || k.Idw <= 0
}

// slopeTerm is the input-slope component k_slope · max_j t_dij. The
// conversion rounds the product on its own, so a compiler that fuses
// multiply-adds cannot fold it into the next addition in one form and not
// in the other.
//
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
func slopeTerm(k Coeffs, maxFaninDelay float64) float64 {
	return float64(k.Slope * maxFaninDelay)
}

// branchLoad is the load one fanout branch puts on the driver: the fanout
// gate's input capacitance w_f·C_t plus the branch wire C_INT.
//
//cmosvet:unit wf 1
//cmosvet:unit cb F
//cmosvet:unit return F
func branchLoad(t *device.Tech, wf, cb float64) float64 { return wf*t.Ct + cb }

// poLoad is the load of a primary output's external branch.
//
//cmosvet:unit cb F
//cmosvet:unit return F
func poLoad(t *device.Tech, cb float64) float64 { return t.COut + cb }

// branchDelay is one fanout branch's interconnect delay: R_INT times the
// branch load plus the time of flight.
//
//cmosvet:unit rb V/A
//cmosvet:unit load F
//cmosvet:unit fl s
//cmosvet:unit return s
func branchDelay(rb, load, fl float64) float64 { return rb*load + fl }

// switchingTerm is the switching component V_dd·C_load / (2·w·drive).
//
//cmosvet:unit vdd V
//cmosvet:unit load F
//cmosvet:unit w 1
//cmosvet:unit drive A
//cmosvet:unit return s
func switchingTerm(vdd, load, w, drive float64) float64 { return vdd * load / (2 * w * drive) }

// stackCharge is the series-stack numerator (f_ii−1)·C_mi·V_dd: the charge
// of the intermediate nodes.
//
//cmosvet:unit fii 1
//cmosvet:unit vdd V
//cmosvet:unit return F*V
func stackCharge(t *device.Tech, fii, vdd float64) float64 { return (fii - 1) * t.Cmi * vdd }

// stackTerm is the series-stack component: charge q over 2·w·I_Dw.
//
//cmosvet:unit q F*V
//cmosvet:unit w 1
//cmosvet:unit idw A
//cmosvet:unit return s
func stackTerm(q, w, idw float64) float64 { return q / (2 * w * idw) }

// Prepared is one gate's Eq. A3 delay with every term that does not depend
// on the gate's own width already evaluated. Procedure 2 binary-searches a
// gate's width while the gate's voltages, fanin delay and fanout widths stay
// fixed; Prepare derives those terms once per search and At applies each
// probe width.
//
// At(w) is bitwise equal to GateDelayAt(id, a, w, -1, 0, maxFaninDelay, k)
// for the arguments Prepare was given, as long as the fanout widths in a
// and the gate's voltages do not change in between. Its load scratch comes
// from NewPrepared, sized for every gate of the circuit, so Prepare does not
// allocate.
type Prepared struct {
	slope  float64 // input-slope component //cmosvet:unit s
	vdd    float64 // the gate's supply //cmosvet:unit V
	cpd    float64 // output parasitic capacitance per unit width //cmosvet:unit F
	drive  float64 // net drive current I_Dw − f_ii·I_off //cmosvet:unit A
	idw    float64 // drive current I_Dw //cmosvet:unit A
	worst  float64 // worst fanout branch RC plus time of flight //cmosvet:unit s
	stack  float64 // series-stack charge (f_ii−1)·C_mi·V_dd //cmosvet:unit F*V
	series bool    // f_ii > 1: the series-stack component applies

	// loads holds w_f·C_t + C_INT for each fanout in fanout order, then the
	// primary-output load: the order GateDelayAt adds them in.
	loads []float64 //cmosvet:unit F

	// fixed marks a delay that does not depend on the width: 0 for an
	// input gate, +Inf when the operating point cannot switch the gate.
	fixed   bool
	fixedTd float64 //cmosvet:unit s
}

// NewPrepared returns an empty Prepared whose load scratch fits the
// largest fanout in the circuit.
func (e *Evaluator) NewPrepared() Prepared {
	return Prepared{loads: make([]float64, 0, e.maxFanout+1)}
}

// Prepare evaluates gate id's width-independent delay terms into p. The
// arguments mean what they mean for GateDelayAt: the fanout widths come
// from a, and k must be CoeffsAt of the gate's (V_dd, V_TS) pair.
//
//cmosvet:hotpath
//cmosvet:unit maxFaninDelay s
func (e *Evaluator) Prepare(p *Prepared, id int, a *design.Assignment, maxFaninDelay float64, k Coeffs) {
	g := e.C.Gate(id)
	if !g.IsLogic() {
		p.fixed, p.fixedTd = true, 0
		return
	}
	vdd := a.VddAt(id)
	t := e.Tech
	fii := float64(g.NumFanin())
	drive, stalled := netDrive(k, fii)
	if stalled {
		p.fixed, p.fixedTd = true, math.Inf(1)
		return
	}

	cb := e.Wire.BranchCapNet(id)
	rb := e.Wire.BranchResNet(id)
	fl := e.Wire.FlightTimeNet(id)
	loads := p.loads[:0]
	worst := 0.0
	for _, f := range g.Fanout {
		l := branchLoad(t, a.W[f], cb)
		loads = append(loads, l)
		if b := branchDelay(rb, l, fl); b > worst {
			worst = b
		}
	}
	if e.cs.IsPO[id] {
		l := poLoad(t, cb)
		loads = append(loads, l)
		if b := branchDelay(rb, l, fl); b > worst {
			worst = b
		}
	}
	// Field by field: a composite-literal store copies the whole struct
	// through a temporary, a measurable share of a width search.
	p.slope = slopeTerm(k, maxFaninDelay)
	p.vdd = vdd
	p.cpd = t.CPD
	p.drive = drive
	p.idw = k.Idw
	p.worst = worst
	p.stack = stackCharge(t, fii, vdd)
	p.series = fii > 1
	p.loads = loads
	p.fixed = false
}

// At returns the prepared gate's delay at width w, adding the terms in
// GateDelayAt's order.
//
//cmosvet:hotpath
//cmosvet:unit w 1
//cmosvet:unit return s
func (p *Prepared) At(w float64) float64 {
	if p.fixed {
		return p.fixedTd
	}
	load := w * p.cpd
	for _, l := range p.loads {
		load += l
	}
	td := p.slope
	td += switchingTerm(p.vdd, load, w, p.drive)
	td += p.worst
	if p.series {
		td += stackTerm(p.stack, w, p.idw)
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
