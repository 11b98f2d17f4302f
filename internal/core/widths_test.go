package core

import (
	"testing"

	"cmosopt/internal/netgen"
)

// Procedure 2's effort is deterministic, so its exact evaluation counters
// are pinned on two paper circuits. A change that skips width probes,
// sweeps or coefficient evaluations — a "speedup" that does less of the
// paper's search — fails here even when the result happens to agree.
func TestOptimizeJointEffortPinned(t *testing.T) {
	type effort struct {
		evals                         int
		calls, probes, sweeps, misses int64
	}
	want := map[string]effort{
		"s298": {evals: 5543, calls: 659602, probes: 574398, sweeps: 146, misses: 144},
		"s510": {evals: 7550, calls: 1593104, probes: 1440762, sweeps: 146, misses: 144},
	}
	for _, name := range []string{"s298", "s510"} {
		c, err := netgen.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, c, 0.5)
		m0 := *p.Eval.Metrics()
		o := DefaultOptions()
		o.Workers = 1 // keeps the shared coefficient cache's misses exact
		res, err := p.OptimizeJoint(o)
		if err != nil {
			t.Fatal(err)
		}
		m := *p.Eval.Metrics()
		got := effort{
			evals:  res.Evaluations,
			calls:  m.GateDelayCalls - m0.GateDelayCalls,
			probes: m.WidthProbes - m0.WidthProbes,
			sweeps: m.FullDelaySweeps - m0.FullDelaySweeps,
			misses: m.CoeffMisses - m0.CoeffMisses,
		}
		if got != want[name] {
			t.Errorf("%s: OptimizeJoint effort %+v, want %+v", name, got, want[name])
		}
	}
}
