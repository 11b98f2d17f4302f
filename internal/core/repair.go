package core

import (
	"cmosopt/internal/design"
)

// repairUnreachableBudgets implements the paper's §4.2 post-processing:
// "some post processing of delay assignments (typically for a very small
// fraction of the total number of logic gates) is done in order for the
// heuristic algorithm to be able to find a solution to the problem without
// violating the overall delay constraint."
//
// A fanout-proportional budget can fall below what any width can achieve.
// The achievable floor of a gate has two parts at the reference corner
// (V_dd = VddMax, V_ts = VtsMax — the Table 1 baseline point, and the
// slowest-threshold case, so lower-threshold operating points are covered):
//
//   - the slope inheritance kappa·max(fanin budgets): the delay model makes a
//     gate at least this slow when its drivers use their full budgets;
//   - the intrinsic switching floor: the gate's delay at maximum width with
//     minimum-width fanout loads.
//
// Budgets below their floor are raised in topological order (so driver
// budgets are final when a gate's slope term is computed), then gates still
// above their own floor on over-subscribed paths are scaled back down to
// restore the per-path Σ budgets ≤ T invariant wherever the floors leave
// room. Returns the number of budgets raised.
func (p *Problem) repairUnreachableBudgets() int {
	n := p.C.N()
	ids, err := p.C.LogicIDs()
	if err != nil {
		return 0
	}
	T := p.CycleBudget()
	tMax := p.Budgets.TMax
	slope := p.Eval.SlopeCoeff(p.Tech.VddMax, p.Tech.VtsMax)

	// Per-gate floors, topological so fanin budgets are final before use.
	// The switching floor uses uniform maximum widths: on a tightly budgeted
	// cluster every gate widens together, so a gate's load scales with its
	// own width and the floor is essentially V_dd·(C_PD+Σfo·C_t)/(2·I_D) —
	// the self-consistent limit uniform upsizing cannot beat.
	aRef := design.Uniform(n, p.Tech.VddMax, p.Tech.VtsMax, p.Tech.WMax)
	floor := make([]float64, n)
	raised := 0
	for _, id := range ids {
		g := p.C.Gate(id)
		maxFB := 0.0
		for _, f := range g.Fanin {
			if p.C.Gates[f].IsLogic() && tMax[f] > maxFB {
				maxFB = tMax[f]
			}
		}
		floor[id] = slope*maxFB + p.Eval.GateDelayWith(id, aRef, 0)
		if tMax[id] < floor[id] {
			tMax[id] = floor[id]
			raised++
		}
	}
	if raised == 0 {
		return 0
	}

	// Rebalance: pull non-floored budgets back down where paths are now
	// over-subscribed. A few passes converge for practical circuits.
	cs, _ := p.C.CSR() // a Problem's circuit is acyclic
	order := cs.Order
	up := make([]float64, n)
	down := make([]float64, n)
	for pass := 0; pass < 3; pass++ {
		for _, id := range order {
			g := &p.C.Gates[id]
			if !g.IsLogic() {
				up[id] = 0
				continue
			}
			best := 0.0
			for _, f := range g.Fanin {
				if p.C.Gates[f].IsLogic() && up[f] > best {
					best = up[f]
				}
			}
			up[id] = best + tMax[id]
		}
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			g := &p.C.Gates[id]
			if !g.IsLogic() {
				down[id] = 0
				continue
			}
			best := 0.0
			for _, f := range g.Fanout {
				if down[f] > best {
					best = down[f]
				}
			}
			down[id] = best + tMax[id]
		}
		changed := false
		for _, id := range ids {
			worst := up[id] + down[id] - tMax[id]
			if worst > T && tMax[id] > floor[id] {
				nt := tMax[id] * T / worst
				if nt < floor[id] {
					nt = floor[id]
				}
				if nt < tMax[id] {
					tMax[id] = nt
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return raised
}
