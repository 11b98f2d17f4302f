package core

import (
	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
)

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
// It returns true only if, after the final sweep, a full delay recomputation
// meets every budget. Widths are left in a (best effort) either way.
//
// solveWidths runs on an evalCtx so that parallel drivers can solve
// independent candidates on worker engine clones; the Problem method below
// is the serial entry point over the main engine.
func (p *Problem) solveWidths(a *design.Assignment, mSteps, passes int) bool {
	return p.sctx.solveWidths(a, mSteps, passes)
}

func (c *evalCtx) solveWidths(a *design.Assignment, mSteps, passes int) bool {
	p := c.p
	ids := p.logicIDs
	budget := p.Budgets.TMax
	wRange := optimize.Range{Lo: p.Tech.WMin, Hi: p.Tech.WMax}
	if c.wtd == nil {
		c.wtd = make([]float64, p.C.N())
	}
	td := c.wtd

	// The per-gate search targets a slightly tightened budget so the small
	// delay drift caused by fanouts widening in later sweeps (a gate's load)
	// cannot push an exactly-met budget into violation; the final
	// verification below uses the true budgets.
	const searchMargin = 0.97

	for pass := 0; pass < passes; pass++ {
		changed := false
		for i := range td {
			td[i] = 0
		}
		for _, id := range ids {
			g := p.C.Gate(id)
			maxIn := 0.0
			for _, f := range g.Fanin {
				if td[f] > maxIn {
					maxIn = td[f]
				}
			}
			target := budget[id] * searchMargin
			// Only the gate's own width changes while it is sized, so its
			// other delay terms are derived once for both searches and
			// its final delay.
			pr := c.eng.PrepareWidth(id, a, maxIn)
			pred := func(w float64) bool {
				return pr.At(w) <= target
			}
			w, ok := optimize.MinSatisfying(wRange, mSteps, pred)
			if !ok {
				// The budget is unreachable at any width (a squeezed
				// Procedure 1 target; the paper repairs such assignments in
				// §4.2's post-processing). Take the smallest width within
				// 10 % of the best achievable delay instead of paying the
				// full WMax energy; the cycle-time check below still
				// guards the real constraint.
				dBest := pr.At(wRange.Hi)
				w, _ = optimize.MinSatisfying(wRange, mSteps, func(wc float64) bool {
					return pr.At(wc) <= dBest*1.1
				})
				// The change detection below measures against the width the
				// gate ends the search with; on this path that was WMax.
				a.W[id] = wRange.Hi
			}
			if rel := w - a.W[id]; rel > 1e-3*a.W[id] || rel < -1e-3*a.W[id] {
				changed = true
			}
			a.W[id] = w
			td[id] = pr.Settled(w)
		}
		if !changed {
			break
		}
	}
	// Budgets are verified with a small relative tolerance: the width
	// fixed-point leaves each gate within a couple of percent of its target
	// (neighbor widths shift after a gate is sized), and a uniform ε-overrun
	// of per-gate budgets perturbs path sums by at most the same ε. The
	// strict cycle-time constraint is re-checked on the final result.
	const budgetTol = 1.03
	final := c.eng.Delays(a)
	for i := range p.C.Gates {
		if !p.C.Gates[i].IsLogic() {
			continue
		}
		if final[i] > budget[i]*budgetTol {
			return false
		}
	}
	return true
}
