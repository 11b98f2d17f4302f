package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
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
	// The joint search at an odd depth; TestOptimizeJointEffortPinned runs
	// it on widths in [1.3, 37.7], whose bisection midpoints are not short
	// binary fractions.
	"joint-narrow": func(p *Problem, o Options) (*Result, error) {
		o.M = 7
		return p.OptimizeJoint(o)
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
		{"s298", "joint-narrow", effort{1231, 146485, 118758, 51, 49}, bits{0x3d5568f5f7d5faa1, 0x3fd999999999999a, 0x3fc199999999999a}},
		{"s510", "joint-narrow", effort{1645, 346992, 294875, 51, 49}, bits{0x3d5d913a9c0d29fe, 0x3fe0000000000000, 0x3fc6666666666666}},
	}
	for _, tc := range cases {
		t.Run(tc.circuit+"/"+tc.run, func(t *testing.T) {
			c, err := netgen.Profile(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			spec := specFor(c, 0.5)
			if tc.run == "joint-narrow" {
				spec.Tech.WMin, spec.Tech.WMax = 1.3, 37.7
			}
			p, err := NewProblem(spec)
			if err != nil {
				t.Fatal(err)
			}
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

// solveWidthsTopo is solveWidths with every sweep in the CSR's topological
// order rather than in p.sizeOrder: the oracle for the shape-grouped order.
func solveWidthsTopo(p *Problem, a *design.Assignment, mSteps, passes int) bool {
	logic := p.logicOrder()
	budget := p.Budgets.TMax
	wMin, wMax := p.Tech.WMin, p.Tech.WMax
	td := make([]float64, p.C.N())
	const searchMargin = 0.97
	for pass := 0; pass < passes; pass++ {
		changed := false
		clear(td)
		for _, id := range logic {
			maxIn := 0.0
			for _, f := range p.cs.Fanins(id) {
				if td[f] > maxIn {
					maxIn = td[f]
				}
			}
			target := budget[id] * searchMargin
			pr := p.Eval.PrepareWidth(int(id), a, maxIn)
			w, ok := pr.MinWidth(wMin, wMax, mSteps, target)
			if !ok {
				dBest := pr.At(wMax)
				w, _ = pr.MinWidth(wMin, wMax, mSteps, dBest*1.1)
				a.W[id] = wMax
			}
			if rel := w - a.W[id]; rel > 1e-3*a.W[id] || rel < -1e-3*a.W[id] {
				changed = true
			}
			a.W[id] = w
			td[id] = pr.Settled(w)
		}
		if !changed {
			break
		}
	}
	const budgetTol = 1.03
	final := p.Eval.Delays(a)
	for _, id := range logic {
		if final[id] > budget[id]*budgetTol {
			return false
		}
	}
	return true
}

// solveWidths sizes each level's gates grouped by shape instead of in
// topological order. No gate of a level feeds another, so the widths, the
// verdict and every effort counter must match the topological sweep bit
// for bit: on two paper circuits and a 2000-gate netlist, at uniform
// voltages, with two thresholds and with per-gate supplies, at two search
// depths (one on an inexact width grid) and pass counts. Coefficient misses
// match because each problem starts from an empty cache and sees the same
// voltage pairs in the same order of width solves.
func TestSolveWidthsLevelOrderInvariant(t *testing.T) {
	gen, err := netgen.Generate(netgen.Config{Name: "gen2k", Gates: 2000, Depth: 30, PIs: 60, POs: 40}, 5)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{gen}
	for _, name := range []string{"s298", "s510"} {
		c, err := netgen.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	type variant struct {
		name string
		make func(n int, vdd, vts float64) *design.Assignment
	}
	variants := []variant{
		{"uniform", func(n int, vdd, vts float64) *design.Assignment { return design.Uniform(n, vdd, vts, 1) }},
		{"two-vt", func(n int, vdd, vts float64) *design.Assignment {
			a := design.Uniform(n, vdd, vts, 1)
			for i := 0; i < n; i += 2 {
				a.Vts[i] = vts + 0.08
			}
			return a
		}},
		{"vdd-per-gate", func(n int, vdd, vts float64) *design.Assignment {
			a := design.Uniform(n, vdd, vts, 1)
			a.VddPer = make([]float64, n)
			for i := range a.VddPer {
				a.VddPer[i] = vdd * (1 + 0.25*float64(i%3))
			}
			return a
		}},
	}
	// At (0.1 V, 0.2 V) a gate with two or more fanins stalls (I_Dw <
	// f_ii·I_off, delay +Inf) and a single-fanin gate does not, so width
	// passes there take fanin maxima over +Inf and finite delays alike.
	stallPoint := [2]float64{0.1, 0.2}
	points := [][2]float64{{0.5, 0.17}, {1.0, 0.15}, {0.3, 0.1}, {2.0, 0.4}, stallPoint}
	var gates, moved, feasible, infeasible, infDelays, finiteDelays, mixedFanins int
	for _, c := range circuits {
		for _, narrow := range []bool{false, true} {
			spec := specFor(c, 0.5)
			if narrow {
				spec.Tech.WMin, spec.Tech.WMax = 1.3, 37.7
			}
			oracle, err := NewProblem(spec)
			if err != nil {
				t.Fatal(err)
			}
			shaped, err := NewProblem(spec)
			if err != nil {
				t.Fatal(err)
			}
			logic := shaped.logicOrder()
			cs := shaped.cs
			for l := 1; l < cs.NumLevels(); l++ {
				lv := cs.LevelStart[l] - cs.LevelStart[1]
				hv := cs.LevelStart[l+1] - cs.LevelStart[1]
				got := slices.Clone(shaped.sizeOrder[lv:hv])
				want := slices.Clone(logic[lv:hv])
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: level %d of the size order is not a permutation of the level's gates", c.Name, l)
				}
			}
			for i := range logic {
				gates++
				if logic[i] != shaped.sizeOrder[i] {
					moved++
				}
			}
			for _, v := range variants {
				for _, pt := range points {
					for _, run := range []struct{ m, passes int }{{12, 4}, {7, 1}} {
						a1 := v.make(c.N(), pt[0], pt[1])
						a2 := a1.Clone()
						want := solveWidthsTopo(oracle, a1, run.m, run.passes)
						got := shaped.solveWidths(a2, run.m, run.passes)
						// Both problems start alike and run the same solves,
						// so their running totals must agree after each.
						wantM, gotM := *oracle.Eval.Metrics(), *shaped.Eval.Metrics()
						where := fmt.Sprintf("%s narrow=%v %s (%v V, %v V) M=%d passes=%d", c.Name, narrow, v.name, pt[0], pt[1], run.m, run.passes)
						if got != want {
							t.Errorf("%s: verdict %v, topological order %v", where, got, want)
						}
						if gotM != wantM {
							t.Errorf("%s: metrics %+v, topological order %+v", where, gotM, wantM)
						}
						for i := range a1.W {
							if math.Float64bits(a1.W[i]) != math.Float64bits(a2.W[i]) {
								t.Errorf("%s: gate %d width %v, topological order %v", where, i, a2.W[i], a1.W[i])
								break
							}
						}
						if want {
							feasible++
						} else {
							infeasible++
						}
						if pt == stallPoint {
							inf, finite, mixed := stallCounts(oracle, a1)
							infDelays += inf
							finiteDelays += finite
							mixedFanins += mixed
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d logic gates sized out of topological order; %d feasible and %d infeasible solves compared", moved, gates, feasible, infeasible)
	if moved == 0 || feasible == 0 || infeasible == 0 {
		t.Errorf("the comparison needs reordered gates, feasible and infeasible solves: %d, %d, %d", moved, feasible, infeasible)
	}
	t.Logf("at (%v V, %v V): %d logic gate delays +Inf, %d finite, %d gates with both among their fanins", stallPoint[0], stallPoint[1], infDelays, finiteDelays, mixedFanins)
	if infDelays == 0 || finiteDelays == 0 || mixedFanins == 0 {
		t.Errorf("the stall point needs +Inf and finite delays and gates whose fanins mix them: %d, %d, %d", infDelays, finiteDelays, mixedFanins)
	}
}

// stallCounts returns how many logic gates of a have a +Inf delay and a
// finite one, by the reference evaluator, and how many have fanins of both.
func stallCounts(p *Problem, a *design.Assignment) (inf, finite, mixed int) {
	td := p.Eval.DelayModel().Delays(a)
	for _, id := range p.logicOrder() {
		if math.IsInf(td[id], 1) {
			inf++
		} else {
			finite++
		}
		var infIn, finiteIn bool
		for _, f := range p.cs.Fanins(id) {
			infIn = infIn || math.IsInf(td[f], 1)
			finiteIn = finiteIn || !math.IsInf(td[f], 1)
		}
		if infIn && finiteIn {
			mixed++
		}
	}
	return inf, finite, mixed
}
