package core

import (
	"math"
	"testing"

	"cmosopt/internal/netgen"
)

// walkerRuns are the flows that drive Procedure 2's directional bisection:
// the joint search, the Table 1 baseline (free and at the 3.3 V reference
// supply) and the sensitivity-sizing comparator.
var walkerRuns = map[string]func(p *Problem, o Options) (*Result, error){
	"joint":    (*Problem).OptimizeJoint,
	"baseline": (*Problem).OptimizeBaseline,
	"baseline-3.3": func(p *Problem, o Options) (*Result, error) {
		o.FixedVdd = 3.3
		return p.OptimizeBaseline(o)
	},
	"sensitivity": func(p *Problem, o Options) (*Result, error) {
		o.M = 4 // the greedy sizer costs tens of budget solves per point
		return p.OptimizeJointSensitivity(o)
	},
}

// Procedure 2's effort is deterministic, so every flow that runs its walker
// has its exact evaluation counters and result bits pinned on two paper
// circuits. A change that skips width probes, sweeps or coefficient
// evaluations — a "speedup" that does less of the paper's search — fails
// here even when the result happens to agree.
func TestOptimizeJointEffortPinned(t *testing.T) {
	type effort struct {
		evals                         int
		calls, probes, sweeps, misses int64
	}
	type bits struct{ objective, vdd, vts uint64 }
	cases := []struct {
		circuit, run string
		effort       effort
		bits         bits
	}{
		{"s298", "joint", effort{5543, 659602, 574398, 146, 144}, bits{0x3d54cae8ea3e2b9c, 0x3fd999999999999a, 0x3fc199999999999a}},
		{"s298", "baseline", effort{305, 36310, 28932, 14, 12}, bits{0x3d8ad8aa4f167bee, 0x3ffd466666666666, 0x3fe6666666666666}},
		{"s298", "baseline-3.3", effort{14, 1644, 930, 3, 0}, bits{0x3da08c3d548c0cdc, 0x400a666666666666, 0x3fe6666666666666}},
		{"s298", "sensitivity", effort{31024, 3691895, 3555942, 18, 16}, bits{0x3d491a021782c7d8, 0x3fd3333333333334, 0x3fc6666666666666}},
		{"s510", "joint", effort{7550, 1593104, 1440762, 146, 144}, bits{0x3d5bf6066aab1df8, 0x3fdff33333333333, 0x3fc5800000000000}},
		{"s510", "baseline", effort{603, 127202, 114120, 14, 12}, bits{0x3d842ae3f2fb6016, 0x3ffd166666666665, 0x3fe6666666666666}},
		{"s510", "baseline-3.3", effort{21, 4533, 3056, 3, 0}, bits{0x3d96ef332b9b9165, 0x400a666666666666, 0x3fe6666666666666}},
		{"s510", "sensitivity", effort{103602, 21859920, 21280344, 18, 16}, bits{0x3d5088d790ee3a9c, 0x3fe0000000000000, 0x3fd0000000000000}},
	}
	for _, tc := range cases {
		t.Run(tc.circuit+"/"+tc.run, func(t *testing.T) {
			c, err := netgen.Profile(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			p := problemFor(t, c, 0.5)
			m0 := *p.Eval.Metrics()
			o := DefaultOptions()
			o.Workers = 1 // misses are exact on one worker: each clone's cache starts empty
			res, err := walkerRuns[tc.run](p, o)
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
			if got != tc.effort {
				t.Errorf("effort %+v, want %+v", got, tc.effort)
			}
			gotBits := bits{math.Float64bits(res.Objective), math.Float64bits(res.Vdd), math.Float64bits(res.VtsValues[0])}
			if gotBits != tc.bits {
				t.Errorf("(objective, Vdd, Vts) bits %#x, want %#x", gotBits, tc.bits)
			}
		})
	}
}
