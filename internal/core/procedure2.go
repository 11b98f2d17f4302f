package core

import (
	"fmt"
	"math"

	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
	"cmosopt/internal/parallel"
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
	// grids, Refine's scans, speculative candidate evaluation, the study
	// sweeps). 0 means one worker per CPU (GOMAXPROCS); 1 forces serial
	// execution. Results are byte-identical for any value — only wall-clock
	// time changes.
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

// evalPoint solves widths at one (Vdd, Vts) candidate and returns the
// objective energy (corner-adjusted when variation factors are set), the
// solved nominal assignment, and feasibility. Infeasible points get +Inf.
// Parallel drivers price independent candidates on forks.
func (p *Problem) evalPoint(vdd, vts float64, o *Options) (float64, *design.Assignment, bool) {
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
		return math.Inf(1), nominal, false
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
	return e, nominal, true
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
	lvl := joint.Child("vdd-level")
	oldTrace := p.setTrace(lvl)
	defer p.setTrace(oldTrace)

	type incumbent struct {
		e   float64
		a   *design.Assignment
		vdd float64
		vts float64
		ok  bool
	}
	best := incumbent{e: math.Inf(1)}

	consider := func(e float64, a *design.Assignment, vdd, vts float64, ok bool) {
		if ok && e < best.e {
			best = incumbent{e: e, a: a, vdd: vdd, vts: vts, ok: true}
		}
	}

	// evalVts runs the middle (threshold) loop at one supply voltage and
	// returns the best objective found there. The bisection chain is
	// sequential — each candidate's result steers the next range — but both
	// possible next ranges are known before the result is: with ≥ 3 workers
	// the loop prices the current candidate and the two reachable next
	// candidates in one speculative batch on forks, resolving two bisection
	// levels per batch. Only on-path candidates feed the incumbent, the
	// steering state and the effort meter, so the walk — and the reported
	// evaluation count — is byte-identical to the serial one at any worker
	// count; the discarded branch's work is the price of the latency win.
	speculate := parallel.Workers(opts.Workers) >= 3
	evalVts := func(vdd float64) float64 {
		vtsR := optimize.Range{Lo: p.Tech.VtsMin, Hi: p.Tech.VtsMax}
		bestHere := math.Inf(1)
		prev := math.Inf(1)
		// step applies one bisection level exactly as the paper's serial walk
		// does and reports whether the range moved higher.
		step := func(r pointRes, vts float64) bool {
			consider(r.e, r.a, vdd, vts, r.ok)
			if r.e < bestHere {
				bestHere = r.e
			}
			// Paper: feasible and energy decreased → raise the threshold
			// range (chase lower leakage); otherwise lower it (buy speed).
			higher := r.ok && r.e <= prev
			if higher {
				vtsR = vtsR.Higher()
			} else {
				vtsR = vtsR.Lower()
			}
			if r.e < prev {
				prev = r.e
			}
			return higher
		}
		for j := 0; j < opts.M; {
			// Cancellation poll: between candidates, never inside one, so
			// an uncanceled run takes the exact same steps.
			if p.ctx.Err() != nil {
				break
			}
			vts := vtsR.Mid()
			if !speculate || j+1 >= opts.M {
				e, a, ok := p.evalPoint(vdd, vts, &opts)
				step(pointRes{e, a, ok}, vts)
				j++
				continue
			}
			hi, lo := vtsR.Higher().Mid(), vtsR.Lower().Mid()
			rs, mets := p.specPoints([][2]float64{{vdd, vts}, {vdd, hi}, {vdd, lo}}, &opts)
			joint.Add("speculative_batches", 1)
			p.Eval.Metrics().Add(mets[0])
			next, nextVts, nextMet := rs[2], lo, mets[2]
			if step(rs[0], vts) {
				next, nextVts, nextMet = rs[1], hi, mets[1]
			}
			j++
			// The chosen branch's candidate is already priced: consume it as
			// the next level without waiting.
			p.Eval.Metrics().Add(nextMet)
			step(next, nextVts)
			j++
		}
		return bestHere
	}

	vddR := optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}
	prevVdd := math.Inf(1)
	for i := 0; i < opts.M; i++ {
		if p.ctx.Err() != nil {
			break
		}
		vdd := vddR.Mid()
		lvlT := lvl.Start()
		e := evalVts(vdd)
		lvlT.Stop()
		// Paper: feasible and energy decreased → lower the supply range
		// (chase lower switching energy); otherwise raise it.
		if !math.IsInf(e, 1) && e <= prevVdd {
			vddR = vddR.Lower()
		} else {
			vddR = vddR.Higher()
		}
		if e < prevVdd {
			prevVdd = e
		}
	}

	if err := p.Canceled(); err != nil {
		return nil, err
	}

	if opts.Refine && best.ok {
		p.refine(&best.e, &best.a, &best.vdd, &best.vts, &opts)
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
func (p *Problem) refine(bestE *float64, bestA **design.Assignment, bestVdd, bestVts *float64, opts *Options) {
	node := p.span("optimize.joint").Child("refine")
	nT := node.Start()
	defer nT.Stop()
	oldTrace := p.setTrace(node)
	defer p.setTrace(oldTrace)
	track := func(vdd, vts float64) float64 {
		e, a, ok := p.evalPoint(vdd, vts, opts)
		if ok && e < *bestE {
			*bestE, *bestA, *bestVdd, *bestVts = e, a, vdd, vts
		}
		return e
	}
	// Local supply candidates around the incumbent (multiplicative steps so
	// the scan is scale-free).
	for _, f := range []float64{0.85, 0.93, 1.0, 1.08, 1.18} {
		// Candidate boundary: a canceled run stops refining and keeps the
		// incumbent (the caller re-polls and surfaces the error).
		if p.Canceled() != nil {
			return
		}
		vdd := optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}.Clamp(*bestVdd * f)
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
			if r.ok && r.e < *bestE {
				*bestE, *bestA, *bestVdd, *bestVts = r.e, r.a, vdd, cands[i]
			}
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
	evals0 := p.Eval.FullEvalEquivalents()

	node := p.span("optimize.baseline")
	nT := node.Start()
	defer nT.Stop()
	oldTrace := p.setTrace(node)
	defer p.setTrace(oldTrace)

	bestE := math.Inf(1)
	var bestA *design.Assignment
	method := "baseline"
	if opts.FixedVdd > 0 {
		// Widths-only reference at a pinned supply.
		if opts.FixedVdd < p.Tech.VddMin || opts.FixedVdd > p.Tech.VddMax {
			return nil, fmt.Errorf("core: fixed Vdd %v outside tech range [%v,%v]", opts.FixedVdd, p.Tech.VddMin, p.Tech.VddMax)
		}
		method = "baseline-fixed-vdd"
		e, a, ok := p.evalPoint(opts.FixedVdd, vt, &opts)
		if ok {
			bestE, bestA = e, a
		}
	} else {
		vddR := optimize.Range{Lo: p.Tech.VddMin, Hi: p.Tech.VddMax}
		prev := math.Inf(1)
		for i := 0; i < opts.M; i++ {
			if p.ctx.Err() != nil {
				break
			}
			vdd := vddR.Mid()
			e, a, ok := p.evalPoint(vdd, vt, &opts)
			if ok && e < bestE {
				bestE, bestA = e, a
			}
			if ok && e <= prev {
				vddR = vddR.Lower()
			} else {
				vddR = vddR.Higher()
			}
			if e < prev {
				prev = e
			}
		}
	}
	if err := p.Canceled(); err != nil {
		return nil, err
	}
	if bestA == nil {
		return nil, fmt.Errorf("core: no feasible baseline design for %q at fc=%v with Vt=%v", p.C.Name, p.Fc, vt)
	}
	res := p.finishResult(method, bestA, true, evals0)
	res.Objective = bestE
	return res, nil
}
