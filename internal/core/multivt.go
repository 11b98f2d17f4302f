package core

import (
	"fmt"
	"math"
	"sort"

	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
)

// OptimizeMultiVt exercises the paper's n_v > 1 option: instead of one
// threshold for the whole module, gates are partitioned into nv groups and
// each group receives its own threshold voltage (physically: extra implant
// masks or distinct tub biases, Figure 1).
//
// The algorithm starts from the single-threshold joint optimum, partitions
// the logic gates into nv groups by their *realized* timing slack at that
// optimum (gates sitting on their budgets — the critical ones — go to the
// low-threshold group; gates with slack go to high-threshold groups where
// trading speed for leakage is free), then runs coordinate descent over the
// group thresholds with golden-section line searches, re-solving all widths
// at every trial point. V_dd stays at the single-Vt optimum's value, then
// gets one final golden-section polish.
//
// The 11-point grid pre-scan of each coordinate-descent line search fans its
// candidates out over opts.Workers forks; the sequential golden-section
// polish stays on the problem itself. Results are identical at any worker
// count. Every width solve is preceded by a poll of the run's context: the
// scan's through fanOut, the line searches' at the top of their objectives,
// which price a canceled point at +Inf for the caller's Canceled check.
func (p *Problem) OptimizeMultiVt(nv int, opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if nv < 1 || nv > 8 {
		return nil, fmt.Errorf("core: nv = %d outside [1,8]", nv)
	}
	base, err := p.OptimizeJoint(opts)
	if err != nil {
		return nil, err
	}
	if nv == 1 {
		return base, nil
	}
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	evals0 := p.Eval.FullEvalEquivalents()

	node := p.span("optimize.multivt")
	nT := node.Start()
	defer nT.Stop()
	oldTrace := p.setTrace(node.Child("coord-descent"))
	defer p.setTrace(oldTrace)

	// Partition logic gates by realized slack fraction at the single-Vt
	// optimum: group 0 = least slack (most critical). The Delays result is
	// engine scratch, consumed immediately below.
	ids := p.logicOrder()
	td := p.Eval.Delays(base.Assignment)
	slackFrac := make([]float64, p.C.N())
	for _, id := range ids {
		b := p.Budgets.TMax[id]
		if b > 0 {
			slackFrac[id] = (b - td[id]) / b
		}
	}
	sorted := append([]int32(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		return slackFrac[sorted[i]] < slackFrac[sorted[j]]
	})
	group := make([]int, p.C.N())
	for rank, id := range sorted {
		group[id] = rank * nv / len(sorted)
	}

	vdd := base.Vdd
	baseVt := base.VtsValues[0]
	groupVts := make([]float64, nv)
	for g := range groupVts {
		groupVts[g] = baseVt
	}

	n := p.C.N()
	// evalGroups prices one vector of group thresholds on q, the problem or
	// one of its forks; the parallel grid scans hand forks fresh gv slices,
	// so the only shared captures (vdd, group, ids) are read-only during a
	// scan.
	evalGroups := func(q *Problem, gv []float64) (float64, *design.Assignment, bool) {
		gT := q.trace.StartChild("group-point")
		defer gT.Stop()
		a := design.Uniform(n, vdd, baseVt, p.Tech.WMin)
		for _, id := range ids {
			a.Vts[id] = gv[group[id]]
		}
		if !q.solveWidths(a, opts.M, opts.WidthPasses) {
			return math.Inf(1), a, false
		}
		return q.Eval.Energy(a).Total(), a, true
	}

	bestE, bestA, ok := evalGroups(p, groupVts)
	if !ok {
		// The single-Vt solution is feasible by construction, so this can
		// only be numeric noise; fall back to it.
		return base, nil
	}

	vtR := optimize.Range{Lo: p.Tech.VtsMin, Hi: p.Tech.VtsMax}
	for sweep := 0; sweep < 3; sweep++ {
		if err := p.Canceled(); err != nil {
			return nil, err
		}
		improved := false
		for g := 0; g < nv; g++ {
			if err := p.Canceled(); err != nil {
				return nil, err
			}
			trial := append([]float64(nil), groupVts...)
			obj := func(vt float64) float64 {
				if p.ctx.Err() != nil {
					return math.Inf(1)
				}
				trial[g] = vt
				e, _, ok := evalGroups(p, trial)
				if !ok {
					return math.Inf(1)
				}
				return e
			}
			// Grid pre-scan first: most of the threshold range is an
			// infeasible +Inf plateau, which defeats golden-section
			// bracketing on its own. The candidates are independent, so they
			// fan out over forks; the argmin reduction walks them in index
			// order and keeps the first strict minimum, as a serial scan
			// would.
			cands := vtR.Linspace(11)
			ces := make([]float64, len(cands))
			p.fanOut(opts.Workers, len(cands), func(q *Problem, k int) {
				gv := append([]float64(nil), groupVts...)
				gv[g] = cands[k]
				e, _, ok := evalGroups(q, gv)
				if !ok {
					e = math.Inf(1)
				}
				ces[k] = e
			})
			// A canceled scan skipped its remaining candidates.
			if err := p.Canceled(); err != nil {
				return nil, err
			}
			gx, ge := vtR.Lo, math.Inf(1)
			for k, e := range ces {
				if e < ge {
					gx, ge = cands[k], e
				}
			}
			if math.IsInf(ge, 1) {
				continue
			}
			step := vtR.Width() / 10
			local := optimize.Range{Lo: vtR.Clamp(gx - step), Hi: vtR.Clamp(gx + step)}
			v, _ := optimize.GoldenSection(obj, local, 1e-3, 12)
			if err := p.Canceled(); err != nil {
				return nil, err
			}
			if obj(v) > ge {
				v = gx
			}
			trial[g] = v
			if e, a, ok := evalGroups(p, trial); ok && e < bestE {
				bestE, bestA = e, a
				groupVts[g] = v
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	// Final supply polish at the chosen thresholds.
	p.setTrace(node.Child("vdd-polish"))
	vddR := optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}
	optimize.GoldenSection(func(v float64) float64 {
		if p.ctx.Err() != nil {
			return math.Inf(1)
		}
		old := vdd
		vdd = v
		e, a, ok := evalGroups(p, groupVts)
		if ok && e < bestE {
			bestE, bestA = e, a
		} else if !ok {
			vdd = old
		}
		if !ok {
			return math.Inf(1)
		}
		return e
	}, vddR, 5e-3, 12)
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	vdd = bestA.Vdd

	if bestE >= base.Energy.Total() {
		return base, nil // never return worse than the nv = 1 solution
	}
	res := p.finishResult(fmt.Sprintf("multi-vt(%d)", nv), bestA, true, evals0)
	res.Objective = bestE
	res.Evaluations += base.Evaluations
	return res, nil
}
