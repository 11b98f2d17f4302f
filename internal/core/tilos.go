package core

import (
	"fmt"
	"math"

	"cmosopt/internal/design"
)

// Sensitivity-based sizing, in the TILOS tradition (the greedy ancestor of
// the exact convex sizing of the paper's reference [10], Sapatnekar et al.).
// Where Procedure 2's inner loop sizes each gate against a precomputed
// Procedure 1 delay budget, the sensitivity sizer needs no budgets at all:
// starting from minimum widths, it repeatedly upsizes the gate on the
// current critical path with the best delay improvement per unit of width,
// until the whole circuit meets the cycle time. It serves as a comparator
// for the ablation "budget-driven vs sensitivity-driven sizing".

// sizeSensitivity grows widths greedily until the critical delay fits the
// cycle budget. Returns false when even aggressive upsizing cannot meet it,
// or when the run is canceled: every greedy step polls the run's context
// first, and the walk's next poll reports the cancel.
//
// The loop runs on the engine's incremental mode: the assignment is bound
// once, each accepted move re-times only the widened gate's fanin loads and
// fanout cone, and candidate moves are scored with width-override probes —
// no full-circuit sweep per iteration and no mutate-and-restore on a.W.
func (p *Problem) sizeSensitivity(a *design.Assignment, step float64) bool {
	budget := p.CycleBudget()
	p.Eval.Bind(a)
	defer p.Eval.Unbind()
	const maxIters = 4000
	for iter := 0; iter < maxIters; iter++ {
		if p.ctx.Err() != nil {
			return false
		}
		cd := p.Eval.BoundCriticalDelay()
		if cd <= budget {
			return true
		}
		if math.IsInf(cd, 1) {
			return false
		}
		// Gates on (near-)critical paths: those with arrival + downstream
		// criticality close to cd. Use slacks for the candidate set.
		slack := p.Eval.BoundSlacks(budget)
		td := p.Eval.BoundDelays()
		bestGate, bestGain := -1, 0.0
		for _, id32 := range p.logicOrder() {
			id := int(id32)
			if slack[id] > 0 || a.W[id] >= p.Tech.WMax {
				continue
			}
			old := a.W[id]
			next := min(old*(1+step), p.Tech.WMax)
			// Local sensitivity: delay change of the gate itself plus the
			// loading penalty on its drivers, per width increment.
			before := p.localDelay(a, id, td, -1, 0)
			after := p.localDelay(a, id, td, id, next)
			gain := (before - after) / (next - old)
			if gain > bestGain {
				bestGain, bestGate = gain, id
			}
		}
		if bestGate < 0 {
			return false // no improving move left
		}
		p.Eval.SetWidth(bestGate, min(a.W[bestGate]*(1+step), p.Tech.WMax))
	}
	return p.Eval.BoundCriticalDelay() <= budget
}

// localDelay scores the timing cost of gate id and its fanin drivers (whose
// loads it contributes to), using the current per-gate delays for slope
// inputs — a cheap local proxy for the global critical delay change. When
// ov ≥ 0, gate ov's width is taken as wOv wherever it appears (its own
// switching width and the load it presents to its drivers).
func (p *Problem) localDelay(a *design.Assignment, id int, td []float64, ov int, wOv float64) float64 {
	cs := p.cs
	maxIn := 0.0
	for _, f := range cs.Fanins(int32(id)) {
		if td[f] > maxIn {
			maxIn = td[f]
		}
	}
	sum := p.Eval.GateDelayOverride(id, a, ov, wOv, maxIn)
	for _, f := range cs.Fanins(int32(id)) {
		if !cs.IsLogic[f] {
			continue
		}
		dIn := 0.0
		for _, ff := range cs.Fanins(f) {
			if td[ff] > dIn {
				dIn = td[ff]
			}
		}
		sum += p.Eval.GateDelayOverride(int(f), a, ov, wOv, dIn)
	}
	return sum
}

// sensitivityPoint prices one (Vdd, Vts) candidate with the sensitivity
// sizer in place of the budget-driven width solver. Infeasible points get
// +Inf.
func (p *Problem) sensitivityPoint(vdd, vts float64) pointRes {
	const step = 0.25
	a := p.candidate(vdd, vts)
	szT := p.trace.StartChild("size")
	ok := p.sizeSensitivity(a, step)
	szT.Stop()
	if !ok {
		return pointRes{math.Inf(1), a, false}
	}
	return pointRes{p.Eval.Energy(a).Total(), a, true}
}

// OptimizeJointSensitivity runs Procedure 2's voltage bisections with the
// sensitivity sizer in place of the budget-driven width solver.
func (p *Problem) OptimizeJointSensitivity(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	evals0 := p.Eval.FullEvalEquivalents()

	node := p.span("optimize.sensitivity")
	nT := node.Start()
	defer nT.Stop()
	best := p.walk(node, &opts, 0, 0, sensitivitySizing)
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if !best.ok {
		return nil, fmt.Errorf("core: sensitivity sizing found no feasible point for %q", p.C.Name)
	}
	res := p.finishResult("joint-sensitivity", best.a, true, evals0)
	res.Objective = best.e
	return res, nil
}
