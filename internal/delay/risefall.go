package delay

import (
	"math"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
)

// Rise/fall-resolved delay analysis. The paper's Appendix A assumes "simple
// multi-input gates with symmetric series or parallel pull-up and pull-down
// MOSFET configurations" and uses one worst-case delay per gate. This mode
// resolves the asymmetry the symmetric model averages away:
//
//   - a falling output discharges through the NMOS network: series for
//     NAND/AND (drive divided by the stack depth), parallel for NOR/OR;
//   - a rising output charges through the PMOS network: parallel for
//     NAND/AND, series for NOR/OR — with PMOS devices β× wider but carrying
//     the hole-mobility handicap µ_n/µ_p.
//
// With β = µ_n/µ_p (the classic sizing rule, and the default technology's
// choice) an inverter is symmetric and the analyses agree; multi-input
// gates are not, and the rise/fall-resolved critical delay is the honest
// worst case.

// muRatio is the electron/hole mobility ratio penalizing PMOS drive.
const muRatio = 2.0 //cmosvet:unit 1

// driveFactors returns the effective per-unit-width drive multipliers of the
// pull-down (fall) and pull-up (rise) networks relative to a single NMOS.
//
//cmosvet:unit beta 1
//cmosvet:unit return1 1
//cmosvet:unit return2 1
func driveFactors(t circuit.GateType, fii int, beta float64) (fall, rise float64) {
	pmosUnit := beta / muRatio // β-wide PMOS with the mobility handicap
	switch t {
	case circuit.Nand, circuit.And:
		return 1 / float64(fii), pmosUnit // series NMOS, parallel PMOS
	case circuit.Nor, circuit.Or:
		return 1, pmosUnit / float64(fii) // parallel NMOS, series PMOS
	case circuit.Xor, circuit.Xnor:
		return 1 / 2.0, pmosUnit / 2 // two-high stacks both sides
	default: // Not, Buf
		return 1, pmosUnit
	}
}

// GateDelayRiseFall returns the rise and fall delays of a logic gate under
// the same load and slope model as GateDelayWith, resolved per transition
// direction. Input gates return zeros.
//
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return1 s
//cmosvet:unit return2 s
func (e *Evaluator) GateDelayRiseFall(id int, a *design.Assignment, maxFaninDelay float64) (rise, fall float64) {
	g := e.C.Gate(id)
	if !g.IsLogic() {
		return 0, 0
	}
	w := a.W[id]
	vts := a.Vts[id]
	vdd := a.VddAt(id)
	t := e.Tech

	idw := t.IdUnit(vdd, vts)
	ioff := t.IoffUnit(vts)
	fii := g.NumFanin()
	fFall, fRise := driveFactors(g.Type, fii, t.Beta)

	// Shared components: slope inheritance, load, interconnect.
	slope := e.SlopeCoeff(vdd, vts) * maxFaninDelay
	load := w * t.CPD
	cb := e.Wire.BranchCapNet(id)
	fo := e.cs.Fanouts(int32(id))
	for _, f := range fo {
		load += a.W[f]*t.Ct + cb
	}
	if e.cs.IsPO[id] {
		load += t.COut + cb
	}
	rb := e.Wire.BranchResNet(id)
	fl := e.Wire.FlightTimeNet(id)
	inter := 0.0
	for _, f := range fo {
		if b := rb*(a.W[f]*t.Ct+cb) + fl; b > inter {
			inter = b
		}
	}
	if e.cs.IsPO[id] {
		if b := rb*(t.COut+cb) + fl; b > inter {
			inter = b
		}
	}
	stack := 0.0
	if fii > 1 {
		stack = float64(fii-1) * t.Cmi * vdd / (2 * w * idw)
	}

	dir := func(factor float64) float64 {
		drive := idw*factor - float64(fii)*ioff
		if drive <= 0 {
			return math.Inf(1)
		}
		return slope + vdd*load/(2*w*drive) + inter + stack
	}
	return dir(fRise), dir(fFall)
}

// CriticalDelayRiseFall runs dual-rail STA: rising and falling arrival times
// propagate separately (an inverting gate's output rise is caused by its
// slowest input fall, and vice versa). It returns the worst output arrival —
// the honest critical delay under asymmetric networks — which is never
// smaller than the symmetric analysis up to the drive-factor model.
//
//cmosvet:unit return s
func (e *Evaluator) CriticalDelayRiseFall(a *design.Assignment) float64 {
	n := e.C.N()
	arrR := make([]float64, n) // arrival of a rising edge at the output
	arrF := make([]float64, n)
	tdR := make([]float64, n)
	tdF := make([]float64, n)
	for _, id := range e.cs.Order {
		g := &e.C.Gates[id]
		if !g.IsLogic() {
			continue
		}
		maxIn := 0.0
		inR, inF := 0.0, 0.0
		for _, f := range g.Fanin {
			if d := math.Max(tdR[f], tdF[f]); d > maxIn {
				maxIn = d
			}
			if arrR[f] > inR {
				inR = arrR[f]
			}
			if arrF[f] > inF {
				inF = arrF[f]
			}
		}
		r, fl := e.GateDelayRiseFall(int(id), a, maxIn)
		tdR[id], tdF[id] = r, fl
		if g.Type.Inverting() {
			arrR[id] = inF + r // falling inputs cause the rising output
			arrF[id] = inR + fl
		} else {
			arrR[id] = inR + r
			arrF[id] = inF + fl
		}
	}
	worst := 0.0
	for _, id := range e.C.POs {
		if v := math.Max(arrR[id], arrF[id]); v > worst {
			worst = v
		}
	}
	return worst
}
