package core

import "math"

// OptimizeDualVdd is the 4×5 rail grid of internal/core/multivdd.go with
// both of its polls removed. Every grid point runs a width solve, so a
// canceled served job would run all twenty before it stopped, and no test
// cancels a dual-Vdd run: go test ./... passes with this mutant. The
// engine calls stand in for evalRails' cluster, width solve and energy.
func (p *Problem) OptimizeDualVdd(baseVdd, baseE float64, vddR voltRange) (bestE, bestHigh float64) {
	evalRails := func(highVdd, lowVdd float64) (float64, bool) {
		if !p.solveWidths(lowVdd) {
			return math.Inf(1), false
		}
		return p.Eng.Energy(highVdd), true
	}
	bestE, bestHigh = baseE, baseVdd
	for _, hf := range []float64{1.0, 1.15, 1.3, 1.5} { // want `does not poll Spec.Ctx on every iteration path`
		high := vddR.Clamp(baseVdd * hf)
		for _, lf := range []float64{0.45, 0.55, 0.65, 0.75, 0.85} { // want `does not poll Spec.Ctx on every iteration path`
			low := vddR.Clamp(high * lf)
			if e, ok := evalRails(high, low); ok && e < bestE {
				bestE, bestHigh = e, high
			}
		}
	}
	return bestE, bestHigh
}

// voltRange stands in for optimize.Range.
type voltRange struct{ Lo, Hi float64 }

func (r voltRange) Clamp(x float64) float64 { return math.Max(r.Lo, math.Min(r.Hi, x)) }
