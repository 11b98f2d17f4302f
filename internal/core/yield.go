package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cmosopt/internal/design"
	"cmosopt/internal/parallel"
)

// YieldResult summarizes a Monte-Carlo process-variation run: the paper's
// Figure 2(a) handles variation with deterministic worst-case corners; this
// complements it with the statistical view — per-gate thresholds drawn
// independently around their nominal values, timing yield and the energy
// distribution measured across the sampled dies.
type YieldResult struct {
	Samples     int
	TimingYield float64 // fraction of dies meeting the cycle budget
	MeanEnergy  float64 // mean per-cycle energy over all dies (J)
	P95Energy   float64 // 95th-percentile per-cycle energy (J)
	WorstDelay  float64 // worst sampled critical delay (s)
}

// substream returns die i's private RNG, derived from (seed, i) through a
// SplitMix64 finalizer so neighbouring indices land on decorrelated streams.
// Per-die substreams make every sample's draws independent of iteration
// order — the property that lets dies run on any worker in any order and
// still produce the exact bits a serial loop would.
func substream(seed int64, i int) *rand.Rand {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// YieldStudy samples `samples` dies: each logic gate's threshold is drawn
// from N(V_ts·1, (sigmaFrac·V_ts)²), clamped positive, and the die's timing
// and energy are evaluated with the fixed widths and supply of the given
// design. Each die draws from its own (seed, index) RNG substream and dies
// fan out over `workers` forks (0 = GOMAXPROCS, 1 = serial); the result
// depends on the seed only, never on the worker count.
func (p *Problem) YieldStudy(a *design.Assignment, sigmaFrac float64, samples int, seed int64, workers int) (*YieldResult, error) {
	if sigmaFrac < 0 || sigmaFrac >= 1 {
		return nil, fmt.Errorf("core: sigma fraction %v outside [0,1)", sigmaFrac)
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: need at least one sample, got %d", samples)
	}
	budget := p.CycleBudget()

	// Each worker prices its dies on its own fork and scratch die.
	type yieldWorker struct {
		q   *Problem
		die *design.Assignment
	}
	w := min(parallel.Workers(workers), samples)
	ws := parallel.Pool(w, func(int) yieldWorker { return yieldWorker{q: p.fork(), die: a.Clone()} })
	cds := make([]float64, samples)
	es := make([]float64, samples)
	parallel.For(w, samples, func(wk, s int) {
		// Cancellation poll on every sample: a canceled study skips its
		// remaining dies and reports the error below.
		if p.Canceled() != nil {
			return
		}
		q, die := ws[wk].q, ws[wk].die
		rng := substream(seed, s)
		for i := range a.Vts {
			if !p.cs.IsLogic[i] {
				continue
			}
			vt := a.Vts[i] * (1 + sigmaFrac*rng.NormFloat64())
			if vt < 1e-3 {
				vt = 1e-3
			}
			die.Vts[i] = vt
		}
		cds[s], es[s] = q.Eval.CriticalDelay(die), q.Eval.Energy(die).Total()
	})
	for _, yw := range ws {
		p.absorb(yw.q.Eval)
	}
	p.Eval.FlushObs()
	if err := p.Canceled(); err != nil {
		return nil, err
	}

	// Reduce in sample order: the float sums are then bit-for-bit the same
	// at any worker count.
	pass := 0
	worst := 0.0
	var sum float64
	for s := 0; s < samples; s++ {
		if cds[s] <= budget {
			pass++
		}
		if cds[s] > worst && !math.IsInf(cds[s], 1) {
			worst = cds[s]
		}
		sum += es[s]
	}
	energies := append([]float64(nil), es...)
	sort.Float64s(energies)
	return &YieldResult{
		Samples:     samples,
		TimingYield: float64(pass) / float64(samples),
		MeanEnergy:  sum / float64(samples),
		P95Energy:   energies[(len(energies)-1)*95/100],
		WorstDelay:  worst,
	}, nil
}
