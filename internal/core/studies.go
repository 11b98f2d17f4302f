package core

import (
	"fmt"
	"math"

	"cmosopt/internal/parallel"
)

// VariationPoint is one sample of the paper's Figure 2(a): power savings as a
// function of the tolerated threshold-voltage process variation.
type VariationPoint struct {
	Tol         float64 // fractional Vt tolerance (0.1 = ±10 %)
	WorstEnergy float64 // worst-case (leaky-corner) per-cycle energy of the optimized design
	Savings     float64 // baseline energy / WorstEnergy
	Vdd         float64
	Vts         float64 // nominal threshold chosen under the corners
	Feasible    bool
}

// VariationStudy reproduces Figure 2(a): for each tolerance, the optimizer is
// re-run with worst-case threshold corners — delays evaluated at the slow
// corner V_ts·(1+tol) so timing is guaranteed across variation, energy at the
// leaky corner V_ts·(1−tol) so the reported power is worst case. Savings are
// measured against the given (nominal, fixed-Vt) baseline, as in the paper.
// Tolerances are independent whole-optimizer runs: they fan out over
// opts.Workers forks, and each point's result is identical at any worker
// count.
func (p *Problem) VariationStudy(tols []float64, opts Options, baseline *Result) ([]VariationPoint, error) {
	if baseline == nil || baseline.Energy.Total() <= 0 {
		return nil, fmt.Errorf("core: variation study needs a valid baseline result")
	}
	for _, tol := range tols {
		if tol < 0 || tol >= 1 {
			return nil, fmt.Errorf("core: Vt tolerance %v outside [0,1)", tol)
		}
	}
	out := make([]VariationPoint, len(tols))
	w, inner := sweepWorkers(opts, len(tols))
	p.fanOut(w, len(tols), func(q *Problem, i int) {
		o := inner
		o.fill()
		o.VtTimingFactor = 1 + tols[i]
		o.VtPowerFactor = 1 - tols[i]
		pt := VariationPoint{Tol: tols[i]}
		res, err := q.OptimizeJoint(o)
		if err == nil {
			pt.WorstEnergy = res.Objective
			pt.Savings = baseline.Energy.Total() / res.Objective
			pt.Vdd = res.Vdd
			pt.Vts = res.VtsValues[0]
			pt.Feasible = true
		} else {
			pt.WorstEnergy = math.Inf(1)
		}
		out[i] = pt
	})
	p.Eval.FlushObs()
	// A canceled run's points read infeasible; report the cancel instead.
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	return out, nil
}

// SlackPoint is one sample of the paper's Figure 2(b): power savings as a
// function of the available cycle time.
type SlackPoint struct {
	Skew           float64 // skew factor b (available budget = b·T_c)
	JointEnergy    float64
	BaselineEnergy float64
	Savings        float64 // baseline / joint at the same budget
	JointVdd       float64
	JointVts       float64
	Feasible       bool
}

// SlackStudy reproduces Figure 2(b): the joint optimizer is re-run across a
// sweep of clock-skew factors (each skew value changes the usable cycle
// budget b·T_c), and its energy is compared against the *fixed* Table 1
// baseline computed once at the spec's own skew — the same reference the
// paper measures Figure 2 savings against. A fresh Problem is elaborated per
// point because Procedure 1's budgets depend on b; the points are
// independent and fan out over opts.Workers workers (the reference problem
// built first also warms the shared circuit's caches).
func SlackStudy(spec Spec, skews []float64, opts Options) ([]SlackPoint, error) {
	pRef, err := NewProblem(spec)
	if err != nil {
		return nil, err
	}
	base, err := pRef.OptimizeBaseline(opts)
	if err != nil {
		return nil, fmt.Errorf("core: slack study baseline: %w", err)
	}
	out := make([]SlackPoint, len(skews))
	errs := make([]error, len(skews))
	w, inner := sweepWorkers(opts, len(skews))
	parallel.For(w, len(skews), func(_, i int) {
		s := spec
		s.Skew = skews[i]
		q, err := NewProblem(s)
		if err != nil {
			errs[i] = fmt.Errorf("core: slack study at b=%v: %w", skews[i], err)
			return
		}
		pt := SlackPoint{Skew: skews[i], BaselineEnergy: base.Energy.Total()}
		joint, jerr := q.OptimizeJoint(inner)
		if jerr == nil {
			pt.JointEnergy = joint.Energy.Total()
			pt.Savings = pt.BaselineEnergy / pt.JointEnergy
			pt.JointVdd = joint.Vdd
			pt.JointVts = joint.VtsValues[0]
			pt.Feasible = true
		} else {
			pt.JointEnergy = math.Inf(1)
		}
		out[i] = pt
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if spec.Ctx != nil && spec.Ctx.Err() != nil {
		return nil, fmt.Errorf("core: slack study canceled: %w", spec.Ctx.Err())
	}
	return out, nil
}
