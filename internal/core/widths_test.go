package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/eval"
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

// solveWidthsTopo is the oracle for the width kernel: a plain pass loop in
// the CSR's topological order that bisects each gate's width by evaluating
// Eq. A3 term by term (delay.Evaluator.GateDelayAt) at every width it
// tests, with no thresholds and no grid shortcut. It bills its engine's
// meter with the counts its search implies — 2 + M probes per bisected
// search, 2 when WMin meets the target, 1 when WMax misses it, plus 1 for
// the delay at WMax and the second search on that path — and takes each
// gate's settled delay through GateDelayWith, one gate-delay call and one
// coefficient lookup per gate-pass. It returns the verdict and the last
// pass's settled delays by gate ID.
func solveWidthsTopo(p *Problem, a *design.Assignment, mSteps, passes int) (bool, []float64) {
	logic := p.logicOrder()
	budget := p.Budgets.TMax
	wMin, wMax := p.Tech.WMin, p.Tech.WMax
	dm := p.Eval.DelayModel()
	met := p.Eval.Metrics()
	count := func(n int) {
		met.WidthProbes += int64(n)
		met.GateDelayCalls += int64(n)
	}
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
			k := dm.CoeffsAt(a.VddAt(int(id)), a.Vts[id])
			meets := func(w, target float64) bool {
				return dm.GateDelayAt(int(id), a, w, -1, 0, maxIn, k) <= target
			}
			search := func(target float64) (float64, bool) {
				if !meets(wMax, target) {
					count(1)
					return wMax, false
				}
				if meets(wMin, target) {
					count(2)
					return wMin, true
				}
				count(2 + mSteps)
				lo, hi := wMin, wMax
				for i := 0; i < mSteps; i++ {
					if mid := lo + (hi-lo)/2; meets(mid, target) {
						hi = mid
					} else {
						lo = mid
					}
				}
				return hi, true
			}
			w, ok := search(budget[id] * searchMargin)
			wOld := a.W[id]
			if !ok {
				dBest := dm.GateDelayAt(int(id), a, wMax, -1, 0, maxIn, k)
				count(1)
				w, _ = search(dBest * 1.1)
				wOld = wMax
			}
			if rel := w - wOld; rel > 1e-3*wOld || rel < -1e-3*wOld {
				changed = true
			}
			a.W[id] = w
			td[id] = p.Eval.GateDelayWith(int(id), a, maxIn)
		}
		if !changed {
			break
		}
	}
	const budgetTol = 1.03
	final := p.Eval.Delays(a)
	for _, id := range logic {
		if final[id] > budget[id]*budgetTol {
			return false, td
		}
	}
	return true, td
}

// The width kernel sizes each level's gates grouped by shape, decides most
// searches from Eq. A3's closed form and lands bisections on their final
// grid cell directly, so it must match the oracle bit for bit: the widths,
// the verdict, the last pass's settled delays and every effort counter, on
// two paper circuits and a 2000-gate netlist, at uniform voltages, with two
// thresholds and with per-gate supplies, at two search depths (one on an
// inexact width grid) and pass counts, and with per-net wire lengths.
// Coefficient misses match because each problem starts from an empty cache
// and sees the same voltage pairs in the same order of width solves.
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
		for _, setup := range []string{"default", "narrow", "sampled-nets"} {
			spec := specFor(c, 0.5)
			switch setup {
			case "narrow":
				spec.Tech.WMin, spec.Tech.WMax = 1.3, 37.7
			case "sampled-nets":
				spec.SampleNets, spec.NetSeed = true, 9
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
			tab := shaped.Eval.NewWidthTable()
			if tab.Len() != len(logic) {
				t.Fatalf("%s: width table holds %d gates, want the %d logic gates", c.Name, tab.Len(), len(logic))
			}
			order := make([]int32, tab.Len())
			for i := range order {
				order[i] = tab.ID(i)
			}
			for l := 1; l < cs.NumLevels(); l++ {
				lv := cs.LevelStart[l] - cs.LevelStart[1]
				hv := cs.LevelStart[l+1] - cs.LevelStart[1]
				got := slices.Clone(order[lv:hv])
				want := slices.Clone(logic[lv:hv])
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: level %d of the width table is not a permutation of the level's gates", c.Name, l)
				}
			}
			for i := range logic {
				gates++
				if logic[i] != order[i] {
					moved++
				}
			}
			for _, v := range variants {
				for _, pt := range points {
					for _, run := range []struct{ m, passes int }{{12, 4}, {7, 1}} {
						a1 := v.make(c.N(), pt[0], pt[1])
						a2 := a1.Clone()
						want, wantTd := solveWidthsTopo(oracle, a1, run.m, run.passes)
						got := shaped.solveWidths(a2, run.m, run.passes)
						// Both problems start alike and run the same solves,
						// so their running totals must agree after each.
						wantM, gotM := *oracle.Eval.Metrics(), *shaped.Eval.Metrics()
						where := fmt.Sprintf("%s %s %s (%v V, %v V) M=%d passes=%d", c.Name, setup, v.name, pt[0], pt[1], run.m, run.passes)
						if got != want {
							t.Errorf("%s: verdict %v, oracle %v", where, got, want)
						}
						if gotM != wantM {
							t.Errorf("%s: metrics %+v, oracle %+v", where, gotM, wantM)
						}
						for i := range a1.W {
							if math.Float64bits(a1.W[i]) != math.Float64bits(a2.W[i]) {
								t.Errorf("%s: gate %d width %v, oracle %v", where, i, a2.W[i], a1.W[i])
								break
							}
						}
						for i, d := range shaped.wscr.Delay {
							if id := tab.ID(i); math.Float64bits(d) != math.Float64bits(wantTd[id]) {
								t.Errorf("%s: gate %d last-pass delay %v, oracle %v", where, id, d, wantTd[id])
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

// Forks made before any width solve share one width table: two forks of a
// fresh problem that solve concurrently build it once between them (run
// under -race), and each matches a serial solve of the same point bit for
// bit, widths and counters alike.
func TestForksShareWidthTable(t *testing.T) {
	c, err := netgen.Profile("s510")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(specFor(c, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewProblem(specFor(c, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	points := [][2]float64{{0.5, 0.17}, {1.0, 0.15}}
	forks := []*Problem{p.fork(), p.fork()}
	got := make([]*design.Assignment, len(forks))
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = design.Uniform(c.N(), points[i][0], points[i][1], 1)
			f.solveWidths(got[i], 12, 4)
		}()
	}
	wg.Wait()
	if forks[0].widths.t == nil || forks[0].widths.t != forks[1].widths.t || p.widths.t != forks[0].widths.t {
		t.Fatalf("forks hold width tables %p and %p, the problem %p: want one shared table",
			forks[0].widths.t, forks[1].widths.t, p.widths.t)
	}
	for i, f := range forks {
		want := design.Uniform(c.N(), points[i][0], points[i][1], 1)
		before := *serial.Eval.Metrics()
		serial.solveWidths(want, 12, 4)
		for j := range want.W {
			if math.Float64bits(want.W[j]) != math.Float64bits(got[i].W[j]) {
				t.Fatalf("fork %d: gate %d width %v, serial solve %v", i, j, got[i].W[j], want.W[j])
			}
		}
		// Each fork's clone starts with fresh counters and an empty cache,
		// and each point is new to the serial problem too.
		wantM := *serial.Eval.Metrics()
		wantM.Add(eval.Metrics{
			GateDelayCalls: -before.GateDelayCalls, FullDelaySweeps: -before.FullDelaySweeps,
			WidthProbes: -before.WidthProbes, CoeffHits: -before.CoeffHits, CoeffMisses: -before.CoeffMisses,
		})
		if gotM := *f.Eval.Metrics(); gotM != wantM {
			t.Errorf("fork %d: metrics %+v, serial solve %+v", i, gotM, wantM)
		}
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

// widthSolvePoints are (V_dd, V_TS) points on the joint walk's bisection
// lattice over the default ranges, from its first point (1.7 V, 0.4 V) to
// the neighbourhood of s510's optimum near (0.5 V, 0.17 V), feasible and
// infeasible, ordered so that consecutive points differ in both voltages.
var widthSolvePoints = [][2]float64{
	{1.7, 0.4}, {0.9, 0.25}, {0.5, 0.175}, {2.5, 0.55},
	{0.3, 0.1375}, {1.3, 0.325}, {0.7, 0.2125}, {0.6, 0.15625},
}

// BenchmarkWidthSolve measures Procedure 2's width-search layer as the
// walk runs it: one op is a whole width solve (M = 12, 4 passes, the
// verification sweep included) on s510 at each of widthSolvePoints in
// turn, from every width at WMin, so no solve repeats the previous solve's
// point and its searches. width-probes per op is an exact count, and once
// the width table exists and the points are priced, a solve allocates
// nothing.
func BenchmarkWidthSolve(b *testing.B) {
	b.Run("s510", func(b *testing.B) {
		c, err := netgen.Profile("s510")
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewProblem(specFor(c, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		o := DefaultOptions()
		as := make([]*design.Assignment, len(widthSolvePoints))
		for i, pt := range widthSolvePoints {
			as[i] = design.Uniform(c.N(), pt[0], pt[1], p.Tech.WMin)
		}
		feasible := 0
		solveAll := func() {
			feasible = 0
			for _, a := range as {
				for i := range a.W {
					a.W[i] = p.Tech.WMin
				}
				if p.solveWidths(a, o.M, o.WidthPasses) {
					feasible++
				}
			}
		}
		solveAll() // builds the width table and prices every point
		b.ReportAllocs()
		probes0 := p.Eval.Metrics().WidthProbes
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solveAll()
		}
		b.StopTimer()
		b.ReportMetric(float64(p.Eval.Metrics().WidthProbes-probes0)/float64(b.N), "width-probes")
		b.ReportMetric(float64(feasible), "feasible-points")
	})
}
