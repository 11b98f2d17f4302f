package optimize

import (
	"fmt"
	"math"
	"math/rand"
)

// AnnealConfig parameterizes the multi-pass simulated-annealing engine. Each
// pass restarts the temperature schedule from the best state found so far
// (the "multiple-pass simulated annealing" of the paper's §4.3 comparison).
type AnnealConfig struct {
	Passes       int     // annealing passes (restarts from the incumbent)
	StepsPerPass int     // Metropolis steps per pass
	T0           float64 // initial temperature (energy units)
	TFinal       float64 // final temperature (> 0)
	Seed         int64
	// Stop, when non-nil, is polled between Metropolis steps; once it
	// returns true the walk abandons the remaining schedule and returns the
	// incumbent. Used to propagate job cancellation into the annealing loop;
	// a walk that never observes Stop()==true is unaffected by it.
	Stop func() bool
}

func (c AnnealConfig) validate() error {
	switch {
	case c.Passes < 1:
		return fmt.Errorf("optimize: anneal passes %d < 1", c.Passes)
	case c.StepsPerPass < 1:
		return fmt.Errorf("optimize: anneal steps %d < 1", c.StepsPerPass)
	case !(c.T0 > 0) || !(c.TFinal > 0) || c.TFinal > c.T0:
		return fmt.Errorf("optimize: anneal temperatures T0=%v TFinal=%v invalid", c.T0, c.TFinal)
	}
	return nil
}

// Anneal minimizes energy over states of type S. neighbor must return a new
// state (it must not mutate its argument); energy must be deterministic.
// Infinite energies mark infeasible states and are never accepted as the
// incumbent unless nothing better is ever seen.
func Anneal[S any](cfg AnnealConfig, init S, energy func(S) float64, neighbor func(S, *rand.Rand) S) (S, float64, error) {
	if err := cfg.validate(); err != nil {
		return init, math.Inf(1), err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	best := init
	bestE := energy(init)
	decay := math.Pow(cfg.TFinal/cfg.T0, 1/float64(cfg.StepsPerPass-1+1))

	for pass := 0; pass < cfg.Passes; pass++ {
		cur, curE := best, bestE
		temp := cfg.T0
		for step := 0; step < cfg.StepsPerPass; step++ {
			if cfg.Stop != nil && cfg.Stop() {
				return best, bestE, nil
			}
			cand := neighbor(cur, rng)
			candE := energy(cand)
			if accept(curE, candE, temp, rng) {
				cur, curE = cand, candE
				if curE < bestE {
					best, bestE = cur, curE
				}
			}
			temp *= decay
		}
	}
	return best, bestE, nil
}

func accept(curE, candE, temp float64, rng *rand.Rand) bool {
	if candE <= curE {
		return true
	}
	if math.IsInf(candE, 1) {
		return false
	}
	return rng.Float64() < math.Exp(-(candE-curE)/temp)
}
