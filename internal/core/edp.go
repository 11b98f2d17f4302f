package core

import (
	"fmt"
	"math"

	"cmosopt/internal/parallel"
)

// The paper's introduction contrasts its fixed-performance formulation with
// the metric of its reference [2] (Burr & Shott): minimize energy·delay when
// no hard clock target exists, trading the two off instead of pinning one.
// EDPStudy provides that mode: it sweeps the required clock frequency,
// re-runs the joint optimizer at each point, and reports the
// energy-per-cycle × critical-delay product, whose interior minimum is the
// "most efficient" operating point of the design.

// EDPPoint is one sample of the energy-delay-product sweep.
type EDPPoint struct {
	Fc     float64 // the clock target of this sample //cmosvet:unit Hz
	Result *Result // joint optimization result at that target
	EDP    float64 // Energy.Total() · CriticalDelay //cmosvet:unit J*s
}

// EDPStudy sweeps clock targets and returns all feasible samples plus the
// index of the EDP-minimal one. Infeasible targets are skipped; it fails
// only when no target is feasible. Targets are independent whole-optimizer
// runs and fan out over opts.Workers workers; results are identical at any
// worker count.
//
//cmosvet:unit fcs Hz
func EDPStudy(spec Spec, fcs []float64, opts Options) ([]EDPPoint, int, error) {
	if len(fcs) == 0 {
		return nil, -1, fmt.Errorf("core: EDP study needs at least one clock target")
	}
	type slot struct {
		res *Result
		err error
	}
	slots := make([]slot, len(fcs))
	w := workersFor(opts.Workers, len(fcs))
	inner := opts
	if w > 1 {
		inner.Workers = 1 // the sweep level owns the parallelism
	}
	parallel.For(w, len(fcs), func(_, i int) {
		if spec.Ctx != nil && spec.Ctx.Err() != nil {
			return // canceled: the post-loop Canceled check reports it
		}
		s := spec
		s.Fc = fcs[i]
		p, err := NewProblem(s)
		if err != nil {
			slots[i].err = fmt.Errorf("core: EDP study at fc=%v: %w", fcs[i], err)
			return
		}
		res, err := p.OptimizeJoint(inner)
		if err != nil {
			// A canceled run must surface as cancellation, not masquerade as
			// an infeasible clock target.
			if cerr := p.Canceled(); cerr != nil {
				slots[i].err = cerr
			}
			return // this clock target is infeasible; skip the sample
		}
		slots[i].res = res
	})
	if spec.Ctx != nil && spec.Ctx.Err() != nil {
		return nil, -1, fmt.Errorf("core: EDP study canceled: %w", spec.Ctx.Err())
	}
	var out []EDPPoint
	bestIdx := -1
	bestEDP := math.Inf(1)
	for i, s := range slots {
		if s.err != nil {
			return nil, -1, s.err
		}
		if s.res == nil {
			continue
		}
		pt := EDPPoint{Fc: fcs[i], Result: s.res, EDP: s.res.Energy.Total() * s.res.CriticalDelay}
		if pt.EDP < bestEDP {
			bestEDP = pt.EDP
			bestIdx = len(out)
		}
		out = append(out, pt)
	}
	if bestIdx < 0 {
		return nil, -1, fmt.Errorf("core: no feasible clock target in the EDP sweep")
	}
	return out, bestIdx, nil
}
