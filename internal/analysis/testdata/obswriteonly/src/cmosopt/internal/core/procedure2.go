// Package core (fixture): the Procedure 2 walk of internal/core/procedure2.go
// with an obs read added that stops the V_dd walk once the level span has
// timed 30 s. An instrumented run (a served job, a -metrics run) then ends
// its search early on a large circuit and returns a different design from
// the same run uninstrumented. TestObsDoesNotChangeOptimizerOutput compares
// the two on a small circuit that never takes 30 s, so go test ./... passes
// with this mutant.
package core

import "cmosopt/internal/obs"

func (p *Problem) walk(span *obs.Span, vddSteps int) {
	lvl := span.Child("vdd-level")
	for i := 0; i < vddSteps; i++ {
		p.level(i)
		if lvl.Snapshot().DurationNS > 30e9 { // want `obs.Span.Snapshot reads instrumentation state`
			break
		}
	}
}

// Problem stands in for the optimization problem.
type Problem struct{}

func (p *Problem) level(int) {}
