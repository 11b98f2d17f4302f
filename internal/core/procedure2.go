package core

import (
	"fmt"
	"math"

	"cmosopt/internal/design"
	"cmosopt/internal/obs"
	"cmosopt/internal/optimize"
)

// Options parameterizes the heuristic optimizers.
type Options struct {
	// M is the number of bisection steps in each of Procedure 2's nested
	// loops (the paper's M; total cost is O(M³) circuit evaluations).
	M int
	// WidthPasses is the number of fixed-point sweeps in the width solver.
	// 1 reproduces the paper's literal single pass.
	WidthPasses int
	// FixedVt, when > 0, pins every gate's threshold (the Table 1 baseline
	// uses 0.7 V) and optimizes only Vdd and widths.
	FixedVt float64
	// FixedVdd, when > 0, additionally pins the supply in OptimizeBaseline,
	// leaving only widths free — the conventional full-supply reference
	// design (the paper's Table 1 runs returned Vdd ≈ 3.3 V, making its
	// reference numerically a fixed-3.3 V design).
	FixedVdd float64
	// VtTimingFactor scales thresholds during delay evaluation (slow process
	// corner, ≥ 1 in variation studies). Zero means 1 (nominal).
	VtTimingFactor float64
	// VtPowerFactor scales thresholds during energy evaluation (leaky
	// process corner, ≤ 1 in variation studies). Zero means 1 (nominal).
	VtPowerFactor float64
	// Workers caps the goroutines used by the parallel drivers (landscape
	// grids, the multi-Vt grid, the study sweeps). 0 means
	// one worker per CPU (GOMAXPROCS); 1 forces serial execution. Procedure
	// 2's bisection walk itself is serial at every value. Results are
	// byte-identical for any value — only wall-clock time changes.
	Workers int
}

// DefaultOptions returns the settings used for the paper's result tables.
func DefaultOptions() Options {
	return Options{M: 12, WidthPasses: 4}
}

// fill gives the variation factors their nominal value 1 when unset. M and
// WidthPasses have no such default: zero is refused by validate, so that a
// caller's M = 0 never runs as M = 12.
func (o *Options) fill() {
	if o.VtTimingFactor == 0 {
		o.VtTimingFactor = 1
	}
	if o.VtPowerFactor == 0 {
		o.VtPowerFactor = 1
	}
}

func (o *Options) validate() error {
	if o.M < 1 || o.M > 64 {
		return fmt.Errorf("core: M = %d outside [1,64]", o.M)
	}
	if o.WidthPasses < 1 || o.WidthPasses > 32 {
		return fmt.Errorf("core: WidthPasses = %d outside [1,32]", o.WidthPasses)
	}
	if o.VtTimingFactor < 1 {
		return fmt.Errorf("core: VtTimingFactor %v < 1 (timing corner must be slow)", o.VtTimingFactor)
	}
	if o.VtPowerFactor <= 0 || o.VtPowerFactor > 1 {
		return fmt.Errorf("core: VtPowerFactor %v outside (0,1]", o.VtPowerFactor)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers = %d negative (0 means GOMAXPROCS)", o.Workers)
	}
	return nil
}

// evalPoint solves widths at one (Vdd, Vts) candidate and prices it: the
// objective energy (corner-adjusted when variation factors are set), the
// solved nominal assignment, and feasibility. Infeasible points get +Inf.
// Parallel drivers price independent candidates on forks.
func (p *Problem) evalPoint(vdd, vts float64, o *Options) pointRes {
	n := p.C.N()
	node := p.trace.Child("point")
	ptT := node.Start()
	defer ptT.Stop()
	// Timing view: thresholds at the slow corner share the width slice with
	// the nominal assignment, so the width solve writes through.
	nominal := p.candidate(vdd, vts)
	timingView := nominal
	if o.VtTimingFactor != 1 {
		timingView = &design.Assignment{Vdd: vdd, Vts: make([]float64, n), W: nominal.W}
		for i := range timingView.Vts {
			timingView.Vts[i] = vts * o.VtTimingFactor
		}
	}
	wT := node.StartChild("widths")
	ok := p.solveWidths(timingView, o.M, o.WidthPasses)
	wT.Stop()
	if !ok {
		return pointRes{math.Inf(1), nominal, false}
	}
	powerView := nominal
	if o.VtPowerFactor != 1 {
		powerView = &design.Assignment{Vdd: vdd, Vts: make([]float64, n), W: nominal.W}
		for i := range powerView.Vts {
			powerView.Vts[i] = vts * o.VtPowerFactor
		}
	}
	eT := node.StartChild("energy")
	e := p.Eval.Energy(powerView).Total()
	eT.Stop()
	return pointRes{e, nominal, true}
}

// candidate returns the assignment a pricer starts from: (vdd, vts) on every
// gate and every width at WMin, as design.Uniform builds it. It reuses the
// buffer of a candidate the walk discarded when there is one, so a walk
// allocates its assignments once rather than once per point.
func (p *Problem) candidate(vdd, vts float64) *design.Assignment {
	a := p.spare
	if a == nil {
		return design.Uniform(p.C.N(), vdd, vts, p.Tech.WMin)
	}
	p.spare = nil
	a.Vdd, a.VddPer = vdd, nil
	for i := range a.W {
		a.Vts[i] = vts
		a.W[i] = p.Tech.WMin
	}
	return a
}

// pricer selects how the walker sizes and prices one (Vdd, Vts) candidate.
type pricer int

const (
	budgetWidths      pricer = iota // evalPoint: width search against Procedure 1 budgets
	sensitivitySizing               // sensitivityPoint: greedy TILOS-style upsizing
)

// price runs the walker's pricer on one candidate.
func (p *Problem) price(how pricer, vdd, vts float64, o *Options) pointRes {
	if how == sensitivitySizing {
		return p.sensitivityPoint(vdd, vts)
	}
	return p.evalPoint(vdd, vts, o)
}

// consider makes r the incumbent b, the best feasible point a search has
// seen, when r is feasible and strictly better. It returns the assignment
// that is not the incumbent afterwards: r's, or the one r displaced (nil
// when there was none).
func (b *pointRes) consider(r pointRes) *design.Assignment {
	if r.ok && r.e < b.e {
		old := b.a
		*b = r
		return old
	}
	return r.a
}

// axis returns one voltage's search range and bisection depth: the tech
// range in m steps when the voltage is free (pin ≤ 0), otherwise the pinned
// value as a zero-width range priced once.
func axis(lo, hi, pin float64, m int) (optimize.Range, int) {
	if pin > 0 {
		return optimize.Range{Lo: pin, Hi: pin}, 1
	}
	return optimize.Range{Lo: lo, Hi: hi}, m
}

// walk is Procedure 2's nested directional bisection, the one search behind
// the joint optimizer, the Table 1 baseline and the sensitivity comparator.
// The outer loop bisects the supply range; at each supply the middle loop
// bisects the threshold range, pricing each candidate with how. A voltage
// pinned by pinVdd or pinVt (> 0) is priced once per level instead. Both
// loops steer by the paper's rule: a feasible candidate (for the supply,
// the level's best) whose energy did not rise moves the range toward lower
// energy, anything else toward speed; infeasible candidates price at +Inf.
// It returns the best feasible point seen anywhere, since the procedure's
// final iterate is never better than its incumbent. The walk is serial at
// every worker count. A canceled run stops at the next candidate boundary
// and leaves the error to the caller's Canceled check.
func (p *Problem) walk(span *obs.Span, o *Options, pinVdd, pinVt float64, how pricer) pointRes {
	lvl := span.Child("vdd-level")
	oldTrace := p.setTrace(lvl)
	defer p.setTrace(oldTrace)
	vddR, vddSteps := axis(p.Tech.VddMin, p.Tech.VddMax, pinVdd, o.M)
	vts0, vtsSteps := axis(p.Tech.VtsMin, p.Tech.VtsMax, pinVt, o.M)
	best := pointRes{e: math.Inf(1)}
	prevVdd := math.Inf(1)
	for i := 0; i < vddSteps; i++ {
		// Cancellation polls: between candidates, never inside one, so an
		// uncanceled run takes the exact same steps.
		if p.ctx.Err() != nil {
			break
		}
		vdd := vddR.Mid()
		lvlT := lvl.Start()
		vtsR := vts0
		levelE, prevVts := math.Inf(1), math.Inf(1)
		for j := 0; j < vtsSteps; j++ {
			if p.ctx.Err() != nil {
				break
			}
			vts := vtsR.Mid()
			r := p.price(how, vdd, vts, o)
			// The assignment that lost is referenced nowhere else: the next
			// candidate reuses it.
			p.spare = best.consider(r)
			if r.e < levelE {
				levelE = r.e
			}
			// Feasible and energy did not rise → raise the threshold range
			// (chase lower leakage); otherwise lower it (buy speed).
			if r.ok && r.e <= prevVts {
				vtsR = vtsR.Higher()
			} else {
				vtsR = vtsR.Lower()
			}
			if r.e < prevVts {
				prevVts = r.e
			}
		}
		lvlT.Stop()
		// Feasible and energy did not rise → lower the supply range (chase
		// lower switching energy); otherwise raise it.
		if !math.IsInf(levelE, 1) && levelE <= prevVdd {
			vddR = vddR.Lower()
		} else {
			vddR = vddR.Higher()
		}
		if levelE < prevVdd {
			prevVdd = levelE
		}
	}
	return best
}

// OptimizeJoint runs the paper's Procedure 2: nested directional bisection of
// the Vdd and Vts ranges with a per-gate minimum-width binary search inside,
// steered by "all delay budgets met and total energy decreased". The best
// feasible point seen anywhere during the search is returned (the procedure's
// final iterate is never better than its incumbent).
func (p *Problem) OptimizeJoint(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.FixedVt != 0 {
		return nil, fmt.Errorf("core: OptimizeJoint with FixedVt set; use OptimizeBaseline")
	}
	evals0 := p.Eval.FullEvalEquivalents()

	joint := p.span("optimize.joint")
	jointT := joint.Start()
	defer jointT.Stop()
	best := p.walk(joint, &opts, 0, 0, budgetWidths)
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if !best.ok {
		return nil, fmt.Errorf("core: no feasible design point for %q at fc=%v (budget %v s)", p.C.Name, p.Fc, p.CycleBudget())
	}
	res := p.finishResult("joint", best.a, true, evals0)
	res.Objective = best.e
	return res, nil
}

// OptimizeBaseline reproduces the paper's Table 1 reference flow: the
// threshold voltage is pinned (700 mV in the paper) and only the supply
// voltage and device widths are optimized, with the same steering rule.
func (p *Problem) OptimizeBaseline(opts Options) (*Result, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	vt := opts.FixedVt
	if vt == 0 {
		vt = 0.7
	}
	if vt < p.Tech.VtsMin || vt > p.Tech.VtsMax {
		return nil, fmt.Errorf("core: fixed Vt %v outside tech range [%v,%v]", vt, p.Tech.VtsMin, p.Tech.VtsMax)
	}
	method := "baseline"
	if opts.FixedVdd > 0 {
		// Widths-only reference at a pinned supply.
		if opts.FixedVdd < p.Tech.VddMin || opts.FixedVdd > p.Tech.VddMax {
			return nil, fmt.Errorf("core: fixed Vdd %v outside tech range [%v,%v]", opts.FixedVdd, p.Tech.VddMin, p.Tech.VddMax)
		}
		method = "baseline-fixed-vdd"
	}
	evals0 := p.Eval.FullEvalEquivalents()

	node := p.span("optimize.baseline")
	nT := node.Start()
	defer nT.Stop()
	best := p.walk(node, &opts, opts.FixedVdd, vt, budgetWidths)
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if !best.ok {
		return nil, fmt.Errorf("core: no feasible baseline design for %q at fc=%v with Vt=%v", p.C.Name, p.Fc, vt)
	}
	res := p.finishResult(method, best.a, true, evals0)
	res.Objective = best.e
	return res, nil
}
