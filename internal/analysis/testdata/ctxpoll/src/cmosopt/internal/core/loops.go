// Package core (fixture): candidate loops under the ctxpoll analyzer.
package core

import (
	"context"

	"cmosopt/internal/eval"
)

// Problem mirrors the real optimization problem's cancellation surface.
type Problem struct {
	Eng *eval.Engine
	ctx context.Context
}

// Canceled polls the run context; callers through it satisfy ctxpoll via
// the PollsCtx fact.
func (p *Problem) Canceled() error {
	return p.ctx.Err()
}

// evalPoint funnels into engine evaluation; loops calling it are candidate
// loops via the (transitive) CallsEval fact.
func (p *Problem) evalPoint(v float64) float64 {
	return p.Eng.Energy(v)
}

// SweepBad reaches evaluation and never polls.
func (p *Problem) SweepBad(points []float64) float64 {
	best := 0.0
	for _, v := range points { // want `does not poll Spec.Ctx on every iteration path`
		if d := p.Eng.CriticalDelay(v); d > best {
			best = d
		}
	}
	return best
}

// SweepGood polls through the wrapper on every iteration.
func (p *Problem) SweepGood(points []float64) float64 {
	best := 0.0
	for _, v := range points {
		if p.Canceled() != nil {
			return best
		}
		if d := p.Eng.CriticalDelay(v); d > best {
			best = d
		}
	}
	return best
}

// SweepDirect polls ctx.Err directly.
func (p *Problem) SweepDirect(points []float64) float64 {
	e := 0.0
	for _, v := range points {
		if p.ctx.Err() != nil {
			return e
		}
		e += p.Eng.Energy(v)
	}
	return e
}

// GridBad reaches evaluation transitively through evalPoint.
func (p *Problem) GridBad(points []float64) float64 {
	e := 0.0
	for _, v := range points { // want `does not poll Spec.Ctx on every iteration path`
		e += p.evalPoint(v)
	}
	return e
}

// SkipBad polls, but the continue path completes an iteration unpolled.
func (p *Problem) SkipBad(points []float64) float64 {
	e := 0.0
	for _, v := range points { // want `does not poll Spec.Ctx on every iteration path`
		if v < 0 {
			continue
		}
		if p.ctx.Err() != nil {
			return e
		}
		e += p.Eng.Energy(v)
	}
	return e
}

// BreakGood is clean: the unpolled path leaves the loop, it does not
// complete an iteration.
func (p *Problem) BreakGood(points []float64) float64 {
	e := 0.0
	for _, v := range points {
		if v > 100 {
			break
		}
		if p.Canceled() != nil {
			return e
		}
		e += p.Eng.Energy(v)
	}
	return e
}

// NestedBad polls only inside the inner loop: the inner loop may run zero
// iterations, so the outer loop's iteration path carries no poll.
func (p *Problem) NestedBad(rows [][]float64) float64 {
	e := 0.0
	for _, row := range rows { // want `does not poll Spec.Ctx on every iteration path`
		for _, v := range row {
			if p.ctx.Err() != nil {
				return e
			}
			e += p.Eng.Energy(v)
		}
	}
	return e
}

// solveWidths mirrors the real width solve: width passes, then the
// verification sweep on the width table, which makes it evaluation.
func (p *Problem) solveWidths(v float64) bool {
	return p.Eng.WidthDelays(p.Eng.SizeWidths(v)) <= 1
}

// WidthsBad solves widths at every point and never polls.
func (p *Problem) WidthsBad(points []float64) int {
	n := 0
	for _, v := range points { // want `does not poll Spec.Ctx on every iteration path`
		if p.solveWidths(v) {
			n++
		}
	}
	return n
}

// PassesOnly loops over width passes alone: not a candidate loop.
func (p *Problem) PassesOnly(points []float64) float64 {
	w := 0.0
	for _, v := range points {
		w += p.Eng.SizeWidths(v) // ok: passes, not full evaluation
	}
	return w
}

// ProbeOnly loops over a per-gate probe: not a candidate loop.
func (p *Problem) ProbeOnly(points []float64) float64 {
	w := 0.0
	for _, v := range points {
		w += p.Eng.ProbeWidth(v) // ok: probe, not full evaluation
	}
	return w
}

// ClosureBad reaches evaluation through a local closure variable.
func (p *Problem) ClosureBad(points []float64) float64 {
	score := func(v float64) float64 { return p.Eng.CriticalDelay(v) }
	best := 0.0
	for _, v := range points { // want `does not poll Spec.Ctx on every iteration path`
		if s := score(v); s > best {
			best = s
		}
	}
	return best
}

// ClosurePollGood polls through a local closure variable.
func (p *Problem) ClosurePollGood(points []float64) float64 {
	done := func() bool { return p.ctx.Err() != nil }
	e := 0.0
	for _, v := range points {
		if done() {
			return e
		}
		e += p.Eng.Energy(v)
	}
	return e
}

// Allowed carries the documented suppression on the loop itself.
func (p *Problem) Allowed(points [4]float64) float64 {
	e := 0.0
	//cmosvet:allow ctxpoll — bounded 4-point scan; the caller polls at its own candidate boundary
	for _, v := range points {
		e += p.Eng.Energy(v)
	}
	return e
}
