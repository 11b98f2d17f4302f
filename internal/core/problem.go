// Package core implements the paper's power-minimization algorithms: the
// Procedure 1 + Procedure 2 heuristic that jointly selects the module supply
// voltage, one or more threshold voltages and per-gate device widths under a
// cycle-time constraint; the conventional fixed-threshold baseline it is
// compared against (Table 1); a multi-pass simulated-annealing comparator
// (§5); and the process-variation and cycle-slack studies of Figure 2.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/eval"
	"cmosopt/internal/obs"
	"cmosopt/internal/power"
	"cmosopt/internal/timing"
	"cmosopt/internal/wiring"
)

// Spec describes one optimization problem instance: the paper's "Given"
// clause (§2).
type Spec struct {
	Circuit *circuit.Circuit // may be sequential; DFFs are cut automatically
	Tech    device.Tech
	Wiring  wiring.Params
	Fc      float64 // required clock frequency //cmosvet:unit Hz
	Skew    float64 // clock-skew derating b ∈ (0,1]; budget is b/Fc //cmosvet:unit 1

	// Input activity: either a uniform (Prob, Density) applied to every
	// primary input, or an explicit per-PI map (by gate name).
	InputProb    float64                       //cmosvet:unit 1
	InputDensity float64                       //cmosvet:unit 1
	Inputs       map[string]activity.InputSpec // optional override

	// Budget repair parameters (see timing.RepairBudgets). Zero values take
	// the defaults kappa = 0.16, gamma = 0.75, which track the delay model's
	// slope coefficient over the search range.
	RepairKappa float64 //cmosvet:unit 1
	RepairGamma float64 //cmosvet:unit 1

	// SampleNets draws an individual wire length per net from the full
	// Davis distribution (deterministically from NetSeed) instead of using
	// the distribution's mean for every net — wire-load variance then
	// reaches the delay and energy models.
	SampleNets bool
	NetSeed    int64

	// CorrelatedActivity replaces the first-order Najm propagation with the
	// correlation-coefficient engine (the paper's [11] direction) for both
	// signal probabilities and transition densities. Quadratic memory in the
	// circuit size; limited to module-scale networks (≤ ~1000 gates).
	CorrelatedActivity bool

	// Obs, when non-nil, collects timing spans, evaluation counters and
	// worker utilization for this problem and every optimizer run on it.
	// Purely observational: attaching a registry never changes any result.
	Obs *obs.Registry

	// Ctx, when non-nil, bounds every optimizer run on the elaborated
	// problem: the long bisection loops poll it between candidate
	// evaluations and abort with a wrapped context error once it is
	// canceled or past its deadline. A run that completes uncanceled is
	// byte-identical to one with no context at all — the polls read, they
	// never steer.
	Ctx context.Context
}

// Problem is a fully elaborated optimization instance: combinational circuit,
// activity profile, wiring model, the evaluation engine, and per-gate delay
// budgets from Procedure 1.
type Problem struct {
	C       *circuit.Circuit
	Tech    device.Tech
	Act     *activity.Profile
	Wire    *wiring.Model
	Eval    *eval.Engine
	Timing  *timing.Analysis
	Budgets *timing.BudgetResult
	Fc      float64 //cmosvet:unit Hz
	Skew    float64 //cmosvet:unit 1

	cs     *circuit.CSR    // the circuit's topology (read-only)
	otrace *obs.Span       // root span of the attached registry (nil without one)
	ctx    context.Context // cancellation bound (never nil; Background without one)
	// trace is the span node candidate evaluations attach under: set by the
	// running optimizer (setTrace) and inherited by forks, so parallel scans
	// attach to the same node. Nil (spans off) without a registry.
	trace *obs.Span
	// widths holds the width kernel's gate table: built on the first width
	// solve and shared read-only by forks through the pointer, so two forks
	// never both build it. wscr is the solver's per-solve scratch over it,
	// one per fork (allocated on the fork's first solve).
	widths *widthTable
	wscr   *eval.WidthScratch
	spare  *design.Assignment // a candidate buffer the walk discarded (see candidate)
}

// widthTable builds the width kernel's gate table once.
type widthTable struct {
	once sync.Once
	t    *eval.WidthTable
}

// Canceled reports whether the problem's context has been canceled or has
// exceeded its deadline, wrapping the context error so callers can both
// errors.Is it and read which optimizer gave up. Nil while the run may
// continue.
func (p *Problem) Canceled() error {
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("core: optimization canceled: %w", err)
	}
	return nil
}

// span returns the named top-level span node for this problem's run — a
// child of the attached registry's root, or nil (every use is a no-op) when
// no registry was attached.
func (p *Problem) span(name string) *obs.Span { return p.otrace.Child(name) }

// setTrace points the problem's span node at s and returns the prior node
// for the caller to defer-restore; forks made while the trace is set inherit
// it.
func (p *Problem) setTrace(s *obs.Span) *obs.Span {
	old := p.trace
	p.trace = s
	return old
}

// logicOrder returns the logic gates in topological order, a view of the
// CSR order: in a combinational circuit they are exactly the gates above
// level 0.
func (p *Problem) logicOrder() []int32 { return p.cs.Order[p.cs.LevelStart[1]:] }

// NewProblem elaborates a Spec: cuts DFFs, propagates activities, builds the
// wiring and model evaluators, and runs Procedure 1 (with repair) to budget
// every gate.
func NewProblem(s Spec) (*Problem, error) {
	if s.Circuit == nil {
		return nil, fmt.Errorf("core: nil circuit")
	}
	if s.Fc <= 0 {
		return nil, fmt.Errorf("core: clock frequency %v must be positive", s.Fc)
	}
	if s.Skew <= 0 || s.Skew > 1 {
		return nil, fmt.Errorf("core: skew factor %v outside (0,1]", s.Skew)
	}
	// An infinite budget would pass every delay check (Inf ≤ Inf).
	if math.IsInf(s.Skew/s.Fc, 1) {
		return nil, fmt.Errorf("core: clock frequency %v too small: cycle budget %v/fc is not finite", s.Fc, s.Skew)
	}
	if err := s.Tech.Validate(); err != nil {
		return nil, err
	}
	c := s.Circuit
	if c.IsSequential() {
		var err error
		if c, err = c.Combinational(); err != nil {
			return nil, err
		}
	}

	elab := s.Obs.Root().Child("elaborate")
	elabT := elab.Start()
	defer elabT.Stop()

	// Activity profile.
	actT := elab.StartChild("activity")
	specs := make(map[int]activity.InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		specs[id] = activity.InputSpec{Prob: s.InputProb, Density: s.InputDensity}
	}
	for name, is := range s.Inputs {
		g := c.GateByName(name)
		if g == nil || g.Type != circuit.Input {
			return nil, fmt.Errorf("core: input spec for %q does not name a primary input", name)
		}
		specs[g.ID] = is
	}
	act, err := activity.Propagate(c, specs)
	if err != nil {
		return nil, err
	}
	if s.CorrelatedActivity {
		const corrGateLimit = 1000 // O(signals²) memory beyond this
		if n := c.NumLogic(); n > corrGateLimit {
			return nil, fmt.Errorf("core: correlated activity limited to %d gates, circuit has %d", corrGateLimit, n)
		}
		corr, err := activity.CorrelatedProbabilities(c, specs)
		if err != nil {
			return nil, err
		}
		act = &activity.Profile{Prob: corr.Prob, Density: corr.Density}
	}
	actT.Stop()

	wire, err := wiring.New(s.Wiring, max(c.NumLogic(), 1))
	if err != nil {
		return nil, err
	}
	if s.SampleNets {
		wire.SampleNets(c.N(), s.NetSeed)
	}
	ta, err := timing.NewAnalysis(c)
	if err != nil {
		return nil, err
	}

	budget := s.Skew / s.Fc
	p1T := elab.StartChild("procedure1")
	bres, err := timing.AssignBudgets(ta, budget)
	if err != nil {
		return nil, err
	}
	// Defaults track the slope coefficient of the delay model over the
	// search range (≈0.08–0.16 for this technology's α).
	kappa, gamma := s.RepairKappa, s.RepairGamma
	if kappa == 0 {
		kappa = 0.16
	}
	if gamma == 0 {
		gamma = 0.75
	}
	if _, err := timing.RepairBudgets(ta, bres, kappa, gamma); err != nil {
		return nil, err
	}
	p1T.Stop()

	p := &Problem{
		C:       c,
		Tech:    s.Tech,
		Act:     act,
		Wire:    wire,
		Timing:  ta,
		Budgets: bres,
		Fc:      s.Fc,
		Skew:    s.Skew,
	}
	if p.Eval, err = eval.New(c, &p.Tech, act, wire, s.Fc); err != nil {
		return nil, err
	}
	if p.cs, err = c.CSR(); err != nil {
		return nil, err
	}
	p.widths = new(widthTable)
	p.otrace = s.Obs.Root()
	p.ctx = s.Ctx
	if p.ctx == nil {
		p.ctx = context.Background()
	}
	p.Eval.AttachObs(s.Obs)
	p.repairUnreachableBudgets()
	return p, nil
}

// CycleBudget returns the skew-derated cycle time b·T_c.
//
//cmosvet:unit return s
func (p *Problem) CycleBudget() float64 { return p.Skew / p.Fc }

// Evaluations returns the full-circuit-evaluation-equivalent work performed
// so far (the unit of the paper's O(M³) complexity claim): every single-gate
// delay-model call — full sweeps, width-bisection probes, incremental cone
// updates — counts as 1/M of a full circuit evaluation.
func (p *Problem) Evaluations() int { return int(math.Round(p.Eval.FullEvalEquivalents())) }

// Result is the outcome of one optimization run.
type Result struct {
	Method        string
	Assignment    *design.Assignment
	Energy        power.Breakdown // per-cycle energy at the solution
	CriticalDelay float64         // achieved critical path delay //cmosvet:unit s
	Feasible      bool            // critical delay ≤ b·T_c with all budgets met
	Vdd           float64         //cmosvet:unit V
	VtsValues     []float64       // distinct threshold voltages in use //cmosvet:unit V
	Evaluations   int             // full-circuit evaluations consumed by this run
	// Objective is the energy metric the optimizer minimized: equal to
	// Energy.Total() at nominal corners, and the worst-case (leaky-corner)
	// energy in variation studies.
	Objective float64 //cmosvet:unit J
}

// Savings returns the total-energy ratio other/this (how many times less
// energy this result consumes than other).
//
//cmosvet:unit return 1
func (r *Result) Savings(other *Result) float64 {
	t := r.Energy.Total()
	if t <= 0 {
		return math.Inf(1)
	}
	return other.Energy.Total() / t
}

func (p *Problem) finishResult(method string, a *design.Assignment, feasible bool, evalsBefore float64) *Result {
	e := p.Eval.Energy(a)
	defer p.Eval.FlushObs()
	return &Result{
		Method:        method,
		Assignment:    a,
		Energy:        e,
		CriticalDelay: p.Eval.CriticalDelay(a),
		Feasible:      feasible && p.Eval.CriticalDelay(a) <= p.CycleBudget()*(1+1e-9),
		Vdd:           a.Vdd,
		VtsValues:     p.distinctLogicVts(a),
		Evaluations:   int(math.Round(p.Eval.FullEvalEquivalents() - evalsBefore)),
		Objective:     e.Total(),
	}
}

// distinctLogicVts returns the set of distinct thresholds actually used by
// logic gates (Input-gate placeholder entries are ignored).
//
//cmosvet:unit return V
func (p *Problem) distinctLogicVts(a *design.Assignment) []float64 {
	const tol = 1e-9
	var out []float64
	for i := range p.C.Gates {
		if !p.C.Gates[i].IsLogic() {
			continue
		}
		v := a.Vts[i]
		seen := false
		for _, u := range out {
			if math.Abs(u-v) < tol {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}
