package core

import (
	"math"
	"math/rand"

	"cmosopt/internal/design"
	"cmosopt/internal/optimize"
)

// AnnealOptions parameterizes the simulated-annealing comparator of the
// paper's §5 ("we have also implemented an optimization tool ... using
// multiple-pass simulated annealing. Our approach performed significantly
// better than annealing over all the circuits").
type AnnealOptions struct {
	optimize.AnnealConfig
	// VddSigma / VtsSigma are the Gaussian move sizes for the voltages;
	// WidthSigma is the log-space move size for one gate's width.
	VddSigma   float64
	VtsSigma   float64
	WidthSigma float64
	// Penalty is the multiplier applied per unit of relative cycle-time
	// violation (soft constraint so annealing can traverse the boundary).
	Penalty float64
}

// DefaultAnnealOptions returns a schedule comparable in circuit evaluations
// to Procedure 2 at the default M.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{
		AnnealConfig: optimize.AnnealConfig{Passes: 3, StepsPerPass: 1500, T0: 1, TFinal: 1e-4, Seed: 1},
		VddSigma:     0.15,
		VtsSigma:     0.04,
		WidthSigma:   0.4,
		Penalty:      30,
	}
}

// annealState is a full design point: one Vdd, one shared Vts (n_v = 1, as in
// the heuristic it is compared against), and per-gate widths.
type annealState struct {
	a *design.Assignment
}

// OptimizeAnneal searches the same (V_dd, V_ts, {w_i}) space as Procedure 2
// with multi-pass simulated annealing over a soft-constrained objective:
// total energy, multiplied by a penalty when the critical delay exceeds the
// cycle budget. The returned result reports the best *feasible* state seen;
// the error is non-nil only for bad configuration.
func (p *Problem) OptimizeAnneal(opts AnnealOptions) (*Result, error) {
	evals0 := p.Eval.FullEvalEquivalents()
	n := p.C.N()
	budget := p.CycleBudget()

	node := p.span("optimize.anneal")
	nT := node.Start()
	defer nT.Stop()
	scoreNode := node.Child("score")

	// The annealer scores states by energy with a delay penalty; feasible
	// incumbents are tracked separately so the result is always legal.
	var bestFeasible *design.Assignment
	bestFeasibleE := math.Inf(1)

	score := func(s annealState) float64 {
		sT := scoreNode.Start()
		defer sT.Stop()
		e := p.Eval.Energy(s.a).Total()
		cd := p.Eval.CriticalDelay(s.a)
		if cd <= budget {
			if e < bestFeasibleE {
				bestFeasibleE = e
				bestFeasible = s.a.Clone()
			}
			return e
		}
		if math.IsInf(cd, 1) {
			return math.Inf(1)
		}
		return e * (1 + opts.Penalty*(cd/budget-1))
	}

	neighbor := func(s annealState, rng *rand.Rand) annealState {
		a := s.a.Clone()
		switch rng.Intn(4) {
		case 0:
			a.Vdd = clamp(a.Vdd+rng.NormFloat64()*opts.VddSigma, p.Tech.VddMin, p.Tech.VddMax)
		case 1:
			vt := clamp(a.Vts[0]+rng.NormFloat64()*opts.VtsSigma, p.Tech.VtsMin, p.Tech.VtsMax)
			a.SetVts(vt)
		default: // widths get double weight: they are most of the variables
			id := rng.Intn(n)
			a.W[id] = clamp(a.W[id]*math.Exp(rng.NormFloat64()*opts.WidthSigma), p.Tech.WMin, p.Tech.WMax)
		}
		return annealState{a: a}
	}

	// Start from a safe high-drive corner (known feasible for any problem the
	// baseline can solve).
	init := annealState{a: design.Uniform(n, p.Tech.VddMax, p.Tech.VtsMax, 4)}
	cfg := opts.AnnealConfig
	cfg.Stop = func() bool { return p.ctx.Err() != nil }
	if _, _, err := optimize.Anneal(cfg, init, score, neighbor); err != nil {
		return nil, err
	}
	if err := p.Canceled(); err != nil {
		return nil, err
	}

	if bestFeasible == nil {
		// Report the infeasible search honestly: fall back to the initial
		// state so callers can still inspect energy numbers.
		res := p.finishResult("anneal", init.a, false, evals0)
		return res, nil
	}
	res := p.finishResult("anneal", bestFeasible, true, evals0)
	res.Objective = bestFeasibleE
	return res, nil
}

func clamp(x, lo, hi float64) float64 { return min(max(x, lo), hi) }
