package core

import (
	"math"
	"sort"

	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
)

// OptimizeDualVdd exercises the paper's other §4 flexibility: "more than one
// … power supply voltage if desired". The practical scheme is clustered
// voltage scaling: a second, lower supply rail for gates with timing slack,
// subject to the structural rule that a low-rail gate may only drive
// low-rail gates or primary outputs — a reduced-swing signal into a
// full-rail gate would leave its PMOS half-on (level converters, which the
// simple scheme avoids, would otherwise be required).
//
// The algorithm: start from the single-supply joint optimum and measure each
// gate's realized slack there; then run a two-dimensional (high rail, low
// rail) search — for each candidate pair, grow the low-rail cluster from the
// outputs backwards (a gate joins only when its slack absorbs the estimated
// slowdown and every fanout is already on the low rail), re-solve all widths,
// and keep the best feasible point. Splits that collapse to a single rail
// are reported as such.
func (p *Problem) OptimizeDualVdd(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	base, err := p.OptimizeJoint(opts)
	if err != nil {
		return nil, err
	}
	evals0 := p.Eval.FullEvalEquivalents()

	node := p.span("optimize.dualvdd")
	nT := node.Start()
	defer nT.Stop()
	oldTrace := p.setTrace(node)
	defer p.setTrace(oldTrace)

	ids, err := p.C.LogicIDs()
	if err != nil {
		return nil, err
	}
	// Engine scratch, consumed immediately below.
	td := p.Eval.Delays(base.Assignment)
	slackFrac := make([]float64, p.C.N())
	for _, id := range ids {
		if b := p.Budgets.TMax[id]; b > 0 {
			slackFrac[id] = (b - td[id]) / b
		}
	}

	baseVt := base.VtsValues[0]
	n := p.C.N()
	vddR := optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}
	cs, err := p.C.CSR()
	if err != nil {
		return nil, err
	}

	// delayScale estimates how much slower a gate gets when its rail moves
	// from the base supply to v: delay ∝ Vdd / I_D(Vdd).
	delayScale := func(v float64) float64 {
		baseD := base.Vdd / p.Tech.IdUnit(base.Vdd, baseVt)
		return (v / p.Tech.IdUnit(v, baseVt)) / baseD
	}

	// cluster grows the low-rail set output-first (reverse topological order
	// so a gate's fanouts are decided before the gate itself): a gate joins
	// only when its estimated slack at the candidate rails absorbs the
	// slowdown with margin, and every fanout is already on the low rail —
	// the no-low-drives-high rule.
	inLow := make([]bool, n)
	cluster := func(high, low float64) int {
		_ = delayScale(high) // high-rail gates only get faster; no test needed
		rLow := delayScale(low)
		members := 0
		for i := len(cs.Order) - 1; i >= 0; i-- {
			id := cs.Order[i]
			g := &p.C.Gates[id]
			inLow[id] = false
			if !g.IsLogic() {
				continue
			}
			// The slowed gate must still fit its absolute Procedure 1
			// budget: delay·rLow ≤ budget·(1 − margin), i.e.
			// (1 − slack)·rLow ≤ 0.95. Width re-growth in the solve below
			// recovers part of the slowdown, so this is conservative.
			if (1-slackFrac[id])*rLow > 0.95 {
				continue
			}
			eligible := true
			for _, f := range g.Fanout {
				if !inLow[f] {
					eligible = false
					break
				}
			}
			if eligible {
				inLow[id] = true
				members++
			}
		}
		return members
	}

	evalRails := func(highVdd, lowVdd float64) (float64, *design.Assignment, bool) {
		rT := node.StartChild("rail-point")
		defer rT.Stop()
		if cluster(highVdd, lowVdd) == 0 {
			return math.Inf(1), nil, false
		}
		a := design.Uniform(n, highVdd, baseVt, p.Tech.WMin)
		a.VddPer = make([]float64, n)
		for i := range a.VddPer {
			a.VddPer[i] = highVdd
		}
		for _, id := range ids {
			if inLow[id] {
				a.VddPer[id] = lowVdd
			}
		}
		if !p.solveWidths(a, opts.M, opts.WidthPasses) {
			return math.Inf(1), a, false
		}
		return p.Eval.Energy(a).Total(), a, true
	}

	// Two-dimensional search: the single-rail optimum is already the lowest
	// supply the critical gates tolerate, so a profitable split usually
	// *raises* the high rail a little (buying the critical gates speed at a
	// quadratic cost on few gates) while dropping the slack cluster's rail
	// well below. Coarse grid, then a golden polish of the low rail at the
	// best high rail.
	bestE := base.Energy.Total()
	var bestA *design.Assignment
	bestHigh := base.Vdd
	for _, hf := range []float64{1.0, 1.15, 1.3, 1.5} {
		if err := p.Canceled(); err != nil {
			return nil, err
		}
		high := vddR.Clamp(base.Vdd * hf)
		for _, lf := range []float64{0.45, 0.55, 0.65, 0.75, 0.85} {
			if err := p.Canceled(); err != nil {
				return nil, err
			}
			low := vddR.Clamp(high * lf)
			if e, a, ok := evalRails(high, low); ok && e < bestE {
				bestE, bestA, bestHigh = e, a, high
			}
		}
	}
	if bestA != nil {
		lowR := optimize.Range{Lo: vddR.Lo, Hi: bestHigh}
		optimize.GoldenSection(func(v float64) float64 {
			e, a, ok := evalRails(bestHigh, v)
			if ok && e < bestE {
				bestE, bestA = e, a
			}
			if !ok {
				return math.Inf(1)
			}
			return e
		}, optimize.Range{Lo: lowR.Clamp(bestHigh * 0.35), Hi: lowR.Clamp(bestHigh * 0.95)}, 1e-3, 12)
	}

	if bestA == nil {
		return base, nil
	}
	// Collapse degenerate "splits" where every logic gate landed on the same
	// rail (the search is then just reporting a better uniform supply).
	rails := map[float64]bool{}
	for _, id := range ids {
		rails[bestA.VddPer[id]] = true
	}
	method := "dual-vdd"
	if len(rails) == 1 {
		for v := range rails {
			bestA.Vdd = v
		}
		bestA.VddPer = nil
		method = "dual-vdd(collapsed)"
	}
	res := p.finishResult(method, bestA, true, evals0)
	res.Objective = bestE
	res.Evaluations += base.Evaluations
	return res, nil
}

// LowRailShare reports, for a dual-Vdd result, the fraction of logic gates
// on the lower rail and the two rail voltages. It returns ok = false for
// single-rail assignments.
//
//cmosvet:unit return1 1
//cmosvet:unit return2 V
//cmosvet:unit return3 V
func (p *Problem) LowRailShare(r *Result) (frac float64, low, high float64, ok bool) {
	a := r.Assignment
	if a.VddPer == nil {
		return 0, a.Vdd, a.Vdd, false
	}
	// Distinct rails over logic gates only (Input entries are placeholders).
	var rails []float64
	for i := range p.C.Gates {
		if !p.C.Gates[i].IsLogic() {
			continue
		}
		v := a.VddPer[i]
		seen := false
		for _, u := range rails {
			if math.Abs(u-v) < 1e-9 {
				seen = true
				break
			}
		}
		if !seen {
			rails = append(rails, v)
		}
	}
	if len(rails) < 2 {
		return 0, a.Vdd, a.Vdd, false
	}
	sort.Float64s(rails)
	low, high = rails[0], rails[len(rails)-1]
	total, cnt := 0, 0
	for i := range p.C.Gates {
		if !p.C.Gates[i].IsLogic() {
			continue
		}
		total++
		if math.Abs(a.VddPer[i]-low) < 1e-9 {
			cnt++
		}
	}
	if total == 0 {
		return 0, low, high, false
	}
	return float64(cnt) / float64(total), low, high, true
}

// CheckRailRule verifies the clustered-voltage-scaling structural rule on an
// assignment: no gate drives a fanout with a strictly higher supply. It
// returns the number of violating edges (0 for legal designs).
func (p *Problem) CheckRailRule(a *design.Assignment) int {
	if a.VddPer == nil {
		return 0
	}
	bad := 0
	for i := range p.C.Gates {
		g := p.C.Gate(i)
		if !g.IsLogic() {
			continue
		}
		for _, f := range g.Fanout {
			if a.VddPer[f] > a.VddPer[i]+1e-9 {
				bad++
			}
		}
	}
	return bad
}
