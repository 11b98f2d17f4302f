// Package core (fixture): Procedure 2's candidate pricing of
// internal/core/procedure2.go (evalPoint) with a package mutex held across
// the width solve and the energy sweep. Every fork of a parallel study and
// every concurrently served job then prices its candidates one at a time,
// with the same output bytes: at GOMAXPROCS 2, figures -fig all ran ×1.8–2.0
// and tables -table all ×1.6–1.9 longer, and go test ./... passes with this
// mutant.
package core

import (
	"sync"

	"cmosopt/internal/eval"
)

var pointMu sync.Mutex

// Problem stands in for the optimization problem.
type Problem struct{ Eval *eval.Engine }

func (p *Problem) evalPoint(vdd float64) float64 {
	pointMu.Lock()
	defer pointMu.Unlock()
	p.solveWidths(vdd)
	return p.Eval.Energy(vdd) // want `engine evaluation while pointMu is held`
}

func (p *Problem) solveWidths(float64) {}
