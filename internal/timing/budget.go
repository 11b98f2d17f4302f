package timing

import (
	"fmt"
	"math"
)

// BudgetFloorFrac is the fraction of the cycle budget given to a gate whose
// path slack is already exhausted when it is reached (a degenerate case the
// paper's Procedure 1 leaves implicit). Such budgets are typically repaired
// downstream.
const BudgetFloorFrac = 1e-6

// BudgetResult is the outcome of Procedure 1.
type BudgetResult struct {
	TMax []float64 // per-gate maximum delay budget (Input gates: +Inf)
}

// AssignBudgets runs the paper's Procedure 1: walk paths in decreasing
// criticality; on each path, distribute the cycle budget remaining after
// already-assigned gates over the unassigned gates in proportion to their
// effective fanouts. T is the skew-derated cycle budget b·T_c.
//
// Instead of materializing the exponential path list, each iteration selects
// the most critical path containing at least one unassigned gate directly:
// the path through argmax_g Up[g]+Down[g]−FoEff[g] over unassigned g, which
// is exactly the path the paper's skip-assigned enumeration would process
// next (criticality is additive, so the bound is achieved by the
// reconstruction). The equivalence is exercised against KBestPaths in tests.
//
// The paper asserts the assignment leaves no path above T. That does not hold
// unconditionally: a path all of whose gates were budgeted on *other*, more
// critical paths is never itself rebalanced and its fanout-proportional
// shares can overshoot. A final normalization pass therefore scales each
// gate's budget by T/(worst path budget sum through it) when that sum exceeds
// T; since the worst sum through every gate of a path bounds the path's own
// sum, one simultaneous pass restores the invariant exactly. The returned
// budgets then satisfy: along every input-to-output path, the sum of budgets
// is at most T.
func AssignBudgets(a *Analysis, T float64) (*BudgetResult, error) {
	if T <= 0 || math.IsNaN(T) {
		return nil, fmt.Errorf("timing: cycle budget %v must be positive", T)
	}
	n := a.C.N()
	res := &BudgetResult{TMax: make([]float64, n)}
	assigned := make([]bool, n)
	remaining := 0
	for i := range a.C.Gates {
		if a.C.Gates[i].IsLogic() {
			res.TMax[i] = math.Inf(1)
			remaining++
		} else {
			res.TMax[i] = math.Inf(1)
			assigned[i] = true
		}
	}

	cursor := newCritCursor(a)
	var path []int // each path reuses the buffer of the one before
	for remaining > 0 {
		// Most critical path with at least one unassigned gate.
		bestID := cursor.next(assigned)
		if bestID < 0 {
			break // unreachable: remaining > 0 implies an unassigned gate
		}
		path = a.pathThrough(bestID, path)

		// Split the path into assigned (sum of budgets T_A) and unassigned
		// (fanout sum) gates.
		var tA float64
		foSum := 0
		for _, id := range path {
			if assigned[id] {
				tA += res.TMax[id]
			} else {
				foSum += a.FoEff[id]
			}
		}
		slack := T - tA
		floor := BudgetFloorFrac * T
		for _, id := range path {
			if assigned[id] {
				continue
			}
			var tm float64
			if slack > 0 && foSum > 0 {
				tm = float64(a.FoEff[id]) * slack / float64(foSum)
			}
			if tm < floor {
				tm = floor
			}
			res.TMax[id] = tm
			assigned[id] = true
			remaining--
		}
	}
	normalizeBudgets(a, res.TMax, T)
	return res, nil
}

// normalizeBudgets caps every gate's budget at its fanout-proportional share
// of the cycle budget on its own most-critical path:
//
//	t_u ≤ FoEff(u) · T / Through(u)
//
// Any path Q then satisfies Σ_{u∈Q} t_u ≤ T·Σ FoEff(u)/crit(Q) = T, because
// Through(u) ≥ crit(Q) for every gate of Q — the invariant the paper asserts
// for Procedure 1 holds by construction after this cap. The cap also bounds
// every budget from below by FoEff·T/C_max, so no gate is squeezed into an
// unreachable target.
func normalizeBudgets(a *Analysis, tMax []float64, T float64) {
	for i, logic := range a.cs.IsLogic {
		if !logic {
			continue
		}
		if lim := float64(a.FoEff[i]) * T / float64(a.Through(i)); tMax[i] > lim {
			tMax[i] = lim
		}
	}
}

// AssignBudgetsEnumerated is the paper-literal form of Procedure 1: it walks
// the explicitly enumerated K most critical paths (KBestPaths, the modified
// Ju–Saleh machinery) in order, applying the same slack-distribution rule,
// and falls back to the direct selection for any gate not covered within
// maxPaths. It exists to validate the production AssignBudgets (which
// selects each next path in O(E) without materializing the list); the two
// must produce identical budgets when maxPaths covers the circuit.
func AssignBudgetsEnumerated(a *Analysis, T float64, maxPaths int) (*BudgetResult, error) {
	if T <= 0 || math.IsNaN(T) {
		return nil, fmt.Errorf("timing: cycle budget %v must be positive", T)
	}
	if maxPaths < 1 {
		return nil, fmt.Errorf("timing: maxPaths %d must be positive", maxPaths)
	}
	n := a.C.N()
	res := &BudgetResult{TMax: make([]float64, n)}
	assigned := make([]bool, n)
	remaining := 0
	for i := range a.C.Gates {
		res.TMax[i] = math.Inf(1)
		if a.C.Gates[i].IsLogic() {
			remaining++
		} else {
			assigned[i] = true
		}
	}
	floor := BudgetFloorFrac * T
	for _, path := range a.KBestPaths(maxPaths) {
		if remaining == 0 {
			break
		}
		var tA float64
		foSum := 0
		for _, id := range path {
			if assigned[id] {
				tA += res.TMax[id]
			} else {
				foSum += a.FoEff[id]
			}
		}
		if foSum == 0 {
			continue // the paper's skip: every gate already assigned
		}
		slack := T - tA
		for _, id := range path {
			if assigned[id] {
				continue
			}
			var tm float64
			if slack > 0 {
				tm = float64(a.FoEff[id]) * slack / float64(foSum)
			}
			if tm < floor {
				tm = floor
			}
			res.TMax[id] = tm
			assigned[id] = true
			remaining--
		}
	}
	// Gates beyond the enumeration horizon: fall back to the direct rule.
	cursor := newCritCursor(a)
	var path []int
	for remaining > 0 {
		bestID := cursor.next(assigned)
		if bestID < 0 {
			break
		}
		path = a.pathThrough(bestID, path)
		var tA float64
		foSum := 0
		for _, id := range path {
			if assigned[id] {
				tA += res.TMax[id]
			} else {
				foSum += a.FoEff[id]
			}
		}
		slack := T - tA
		for _, id := range path {
			if assigned[id] {
				continue
			}
			var tm float64
			if slack > 0 && foSum > 0 {
				tm = float64(a.FoEff[id]) * slack / float64(foSum)
			}
			if tm < floor {
				tm = floor
			}
			res.TMax[id] = tm
			assigned[id] = true
			remaining--
		}
	}
	normalizeBudgets(a, res.TMax, T)
	return res, nil
}

// RepairBudgets post-processes Procedure 1's assignment for the fanin-slope
// delay term (§4.2's final paragraph): a gate whose drivers were budgeted far
// more delay than the gate itself cannot meet its budget at any width,
// because its delay includes kappa·max_fanin(t_d). A reverse-topological pass
// tightens each driver's budget so that kappa·t_driver ≤ gamma·t_driven,
// leaving a (1−gamma) fraction of the driven gate's budget for its own
// switching. Tightening never violates the cycle-time invariant. Returns the
// number of budgets reduced.
func RepairBudgets(a *Analysis, res *BudgetResult, kappa, gamma float64) (int, error) {
	if kappa <= 0 || kappa >= 1 {
		return 0, fmt.Errorf("timing: slope coefficient kappa %v outside (0,1)", kappa)
	}
	if gamma <= 0 || gamma >= 1 {
		return 0, fmt.Errorf("timing: repair fraction gamma %v outside (0,1)", gamma)
	}
	repaired := 0
	cs := a.cs
	order := cs.Order
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if !cs.IsLogic[id] {
			continue
		}
		limit := math.Inf(1)
		for _, f := range cs.Fanouts(id) {
			if lim := gamma * res.TMax[f] / kappa; lim < limit {
				limit = lim
			}
		}
		if res.TMax[id] > limit {
			res.TMax[id] = limit
			repaired++
		}
	}
	return repaired, nil
}

// CheckBudgets verifies Procedure 1's invariant: the worst path sum of
// budgets is at most T (within tolerance tol, which absorbs floor budgets).
// It returns the worst path budget sum found.
func CheckBudgets(a *Analysis, tMax []float64, T, tol float64) (float64, bool) {
	sum := make([]float64, a.C.N())
	worst := 0.0
	cs := a.cs
	for _, id := range cs.Order {
		if !cs.IsLogic[id] {
			continue
		}
		best := 0.0
		for _, f := range cs.Fanins(id) {
			if cs.IsLogic[f] && sum[f] > best {
				best = sum[f]
			}
		}
		sum[id] = best + tMax[id]
		if sum[id] > worst {
			worst = sum[id]
		}
	}
	return worst, worst <= T*(1+tol)
}
