package core

import "cmosopt/internal/design"

// solveWidths is the innermost loop of Procedure 2: for the supply and
// threshold voltages already set in a, find for every gate the smallest width
// in [WMin, WMax] whose delay meets the gate's Procedure 1 budget, by binary
// search (delay is monotone decreasing in the gate's own width).
//
// A gate's delay also depends on its fanouts' widths (load) and its fanin
// gates' delays (slope term), so one topological sweep is not a fixed point;
// the sweep is iterated up to `passes` times or until widths stop changing.
// passes = 1 reproduces the paper's literal single-pass Procedure 2 (kept for
// the ablation benchmark); the default in Options is a small fixed-point
// iteration, which strictly dominates it.
//
// The sweeps run in the evaluation engine's width kernel (eval.SizeWidths),
// over the engine's width table and scratch: the logic gates level by
// level, each level grouped by gate shape. No gate of a level is a fanin or
// a fanout of another gate of that level, so every gate reads the same
// fanin delays and fanout widths in any order within its level, and the
// widths, the verdict and the summed effort counters are those of a sweep
// in topological order.
//
// It returns true only if, after the final sweep, a full delay recomputation
// meets every budget. That recomputation also runs on the width table
// (eval.WidthDelays, the loop of the engine's full sweep): one sweep in
// solve order, billed as one full sweep, that leaves the final delays in
// the scratch's Delay by solve position. Widths are left in a (best effort)
// either way.
func (p *Problem) solveWidths(a *design.Assignment, mSteps, passes int) bool {
	s := p.Eval.WidthScratch()
	// The per-gate search targets a slightly tightened budget so the small
	// delay drift caused by fanouts widening in later sweeps (a gate's load)
	// cannot push an exactly-met budget into violation; the final
	// verification below uses the true budgets. The targets are gathered on
	// every solve: a caller may rewrite the budgets between solves.
	const searchMargin = 0.97
	budget := p.Budgets.TMax
	for i := range s.Target {
		s.Target[i] = budget[s.ID(i)] * searchMargin
	}
	p.Eval.SizeWidths(s, a, p.Tech.WMin, p.Tech.WMax, mSteps, passes)

	// Budgets are verified with a small relative tolerance: the width
	// fixed-point leaves each gate within a couple of percent of its target
	// (neighbor widths shift after a gate is sized), and a uniform ε-overrun
	// of per-gate budgets perturbs path sums by at most the same ε. The
	// strict cycle-time constraint is re-checked on the final result.
	const budgetTol = 1.03
	p.Eval.WidthDelays(s, a)
	for i, d := range s.Delay {
		if d > budget[s.ID(i)]*budgetTol {
			return false
		}
	}
	return true
}
