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
	FixedVt float64 //cmosvet:unit V
	// FixedVdd, when > 0, additionally pins the supply in OptimizeBaseline,
	// leaving only widths free — the conventional full-supply reference
	// design (the paper's Table 1 runs returned Vdd ≈ 3.3 V, making its
	// reference numerically a fixed-3.3 V design).
	FixedVdd float64 //cmosvet:unit V
	// Refine runs a local grid + golden-section polish over (Vdd, Vts)
	// around the best point after the directional bisection ends. Costlier,
	// used by the steering ablation.
	Refine bool
	// VtTimingFactor scales thresholds during delay evaluation (slow process
	// corner, ≥ 1 in variation studies). Zero means 1 (nominal).
	VtTimingFactor float64 //cmosvet:unit 1
	// VtPowerFactor scales thresholds during energy evaluation (leaky
	// process corner, ≤ 1 in variation studies). Zero means 1 (nominal).
	VtPowerFactor float64 //cmosvet:unit 1
	// Workers caps the goroutines used by the parallel drivers (landscape
	// grids, Refine's scans, the multi-Vt grid, the study sweeps). 0 means
	// one worker per CPU (GOMAXPROCS); 1 forces serial execution. Procedure
	// 2's bisection walk itself is serial at every value. Results are
	// byte-identical for any value — only wall-clock time changes.
	Workers int
}

// DefaultOptions returns the settings used for the paper's result tables.
func DefaultOptions() Options {
	return Options{M: 12, WidthPasses: 4}
}

func (o *Options) fill() {
	if o.M == 0 {
		o.M = 12
	}
	if o.WidthPasses == 0 {
		o.WidthPasses = 4
	}
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
	nominal := design.Uniform(n, vdd, vts, p.Tech.WMin)
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

// pricer selects how the walker sizes and prices one (Vdd, Vts) candidate.
type pricer int

const (
	budgetWidths      pricer = iota // evalPoint: width search against Procedure 1 budgets
	sensitivitySizing               // sensitivityPoint: greedy TILOS-style upsizing
)

// price runs the walker's pricer on one candidate. It is a method rather
// than a func parameter so that ctxpoll sees the walker's loops reach
// evaluation.
func (p *Problem) price(how pricer, vdd, vts float64, o *Options) pointRes {
	if how == sensitivitySizing {
		return p.sensitivityPoint(vdd, vts)
	}
	return p.evalPoint(vdd, vts, o)
}

// incumbent is the best feasible point a search has seen, with the voltages
// it was priced at.
type incumbent struct {
	pointRes
	vdd, vts float64 //cmosvet:unit V
}

// consider makes r, priced at (vdd, vts), the incumbent when it is feasible
// and strictly better.
func (b *incumbent) consider(r pointRes, vdd, vts float64) {
	if r.ok && r.e < b.e {
		*b = incumbent{r, vdd, vts}
	}
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
func (p *Problem) walk(span *obs.Span, o *Options, pinVdd, pinVt float64, how pricer) incumbent {
	lvl := span.Child("vdd-level")
	oldTrace := p.setTrace(lvl)
	defer p.setTrace(oldTrace)
	vddR, vddSteps := axis(p.Tech.VddMin, p.Tech.VddMax, pinVdd, o.M)
	vts0, vtsSteps := axis(p.Tech.VtsMin, p.Tech.VtsMax, pinVt, o.M)
	best := incumbent{pointRes: pointRes{e: math.Inf(1)}}
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
			best.consider(r, vdd, vts)
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

	if opts.Refine && best.ok {
		p.refine(&best, &opts)
		if err := p.Canceled(); err != nil {
			return nil, err
		}
	}

	if !best.ok {
		return nil, fmt.Errorf("core: no feasible design point for %q at fc=%v (budget %v s)", p.C.Name, p.Fc, p.CycleBudget())
	}
	res := p.finishResult("joint", best.a, true, evals0)
	res.Objective = best.e
	return res, nil
}

// refine polishes the incumbent with a local search around it: a coarse grid
// pre-scan (robust against the infeasible plateaus that break pure
// golden-section bracketing — at low V_dd most of the V_ts range is
// infeasible and evaluates to +Inf), then golden-section over V_ts at the
// best few supplies near the incumbent.
//
// The supply candidates are sequentially dependent (each is relative to the
// incumbent the previous ones left behind) and golden-section is a dependent
// chain, but each supply's 9-point threshold pre-scan is embarrassingly
// parallel: it fans out over forks, with the incumbent updates and the
// argmin applied afterwards in grid order, exactly as the serial scan would
// have.
func (p *Problem) refine(best *incumbent, opts *Options) {
	node := p.span("optimize.joint").Child("refine")
	nT := node.Start()
	defer nT.Stop()
	oldTrace := p.setTrace(node)
	defer p.setTrace(oldTrace)
	track := func(vdd, vts float64) float64 {
		r := p.evalPoint(vdd, vts, opts)
		best.consider(r, vdd, vts)
		return r.e
	}
	// Local supply candidates around the incumbent (multiplicative steps so
	// the scan is scale-free).
	for _, f := range []float64{0.85, 0.93, 1.0, 1.08, 1.18} {
		// Candidate boundary: a canceled run stops refining and keeps the
		// incumbent (the caller re-polls and surfaces the error).
		if p.Canceled() != nil {
			return
		}
		vdd := optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}.Clamp(best.vdd * f)
		// Robust threshold scan, then a short golden polish around it.
		vtR := optimize.Range{Lo: p.Tech.VtsMin, Hi: p.Tech.VtsMax}
		cands := vtR.Linspace(9)
		pts := make([][2]float64, len(cands))
		for i, v := range cands {
			pts[i] = [2]float64{vdd, v}
		}
		rs := p.scanPoints(opts.Workers, pts, opts)
		gx, ge := vtR.Lo, math.Inf(1)
		for i, r := range rs {
			best.consider(r, vdd, cands[i])
			if r.e < ge {
				gx, ge = cands[i], r.e
			}
		}
		if math.IsInf(ge, 1) {
			continue
		}
		step := vtR.Width() / 8
		local := optimize.Range{Lo: vtR.Clamp(gx - step), Hi: vtR.Clamp(gx + step)}
		optimize.GoldenSection(func(v float64) float64 { return track(vdd, v) }, local, 1e-3, 12)
	}
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
