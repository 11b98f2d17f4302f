// Package cmosopt's root benchmark harness regenerates every table and
// figure of the paper's evaluation (§5) as testing.B benchmarks, plus the
// ablations called out in DESIGN.md. Custom metrics carry the reproduced
// quantities:
//
//	go test -bench=Table -benchmem          # Tables 1 and 2
//	go test -bench=Figure                   # Figure 2(a) and 2(b) series
//	go test -bench=Ablation                 # design-choice ablations
//
// Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
package cmosopt

import (
	"fmt"
	"runtime"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/experiments"
	"cmosopt/internal/netgen"
	"cmosopt/internal/timing"
	"cmosopt/internal/wiring"
)

// suite is the paper's benchmark set; heavy benches use a subset.
var suite = netgen.SuiteNames()

// benchLevelDelay is the assumed per-level delay used to derive a feasible
// clock frequency for depth-scaled benchmark circuits.
//
//cmosvet:unit s
const benchLevelDelay = 0.35e-9

func problemFor(b *testing.B, name string, act float64) *core.Problem {
	b.Helper()
	c, err := netgen.Profile(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: act,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// problemForScale elaborates one of netgen's 10⁵–10⁶-gate scale profiles at a
// depth-matched clock (~0.35 ns per level, the BenchmarkScalability rate —
// a fixed 300 MHz would be structurally infeasible at depth 120+).
func problemForScale(b *testing.B, name string, act float64) *core.Problem {
	b.Helper()
	cfg, err := netgen.ScaleConfig(name)
	if err != nil {
		b.Fatal(err)
	}
	c, err := netgen.ScaleProfile(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           1 / (float64(cfg.Depth) * benchLevelDelay),
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: act,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1 regenerates the paper's Table 1: the fixed-Vt (700 mV)
// width+Vdd baseline per benchmark circuit at activity 0.5. The reported
// metrics are the returned supply voltage and total energy per cycle.
func BenchmarkTable1(b *testing.B) {
	for _, name := range suite {
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				p := problemFor(b, name, 0.5)
				var err error
				res, err = p.OptimizeBaseline(core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Vdd, "Vdd(V)")
			b.ReportMetric(res.Energy.Total()*1e15, "fJ/cycle")
			b.ReportMetric(res.CriticalDelay*1e9, "delay(ns)")
		})
	}
}

// BenchmarkTable2 regenerates the paper's Table 2: the joint Vdd/Vt/width
// heuristic per circuit, reporting the savings factor against the Table 1
// baseline and against the fixed-3.3 V reference (the value the paper's
// Table 1 optimizer actually returned; the paper's 10–25x figures).
func BenchmarkTable2(b *testing.B) {
	for _, name := range suite {
		b.Run(name, func(b *testing.B) {
			var entry experiments.Entry
			for i := 0; i < b.N; i++ {
				cfg := experiments.Default()
				cfg.Circuits = []string{name}
				cfg.Activities = []float64{0.5}
				entries, err := experiments.RunSuite(cfg)
				if err != nil {
					b.Fatal(err)
				}
				entry = entries[0]
			}
			b.ReportMetric(entry.Savings, "savings(x)")
			b.ReportMetric(entry.Savings33, "savings-vs-3.3V(x)")
			b.ReportMetric(entry.Joint.VtsValues[0]*1e3, "Vt(mV)")
			b.ReportMetric(entry.Joint.Vdd, "Vdd(V)")
			b.ReportMetric(entry.Joint.Energy.Static/entry.Joint.Energy.Dynamic, "static/dynamic")
		})
	}
}

// BenchmarkFigure2a regenerates Figure 2(a): power savings of the
// worst-case-corner-optimized design vs threshold-voltage tolerance (s298).
func BenchmarkFigure2a(b *testing.B) {
	tols := []float64{0, 0.10, 0.20, 0.30}
	var pts []core.VariationPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure2a(experiments.Default(), "s298", 0.5, tols)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(pt.Savings, fmt.Sprintf("savings@%.0f%%(x)", pt.Tol*100))
	}
}

// BenchmarkFigure2b regenerates Figure 2(b): power savings vs available
// cycle time (skew factor sweep, s298).
func BenchmarkFigure2b(b *testing.B) {
	skews := []float64{0.55, 0.75, 0.95}
	var pts []core.SlackPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Figure2b(experiments.Default(), "s298", 0.5, skews)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(pt.Savings, fmt.Sprintf("savings@b=%.2f(x)", pt.Skew))
	}
}

// BenchmarkAnnealVsHeuristic regenerates the §5 comparison: equal-effort
// multi-pass simulated annealing vs the heuristic. A ratio above 1 means the
// heuristic wins, the paper's finding.
func BenchmarkAnnealVsHeuristic(b *testing.B) {
	for _, name := range []string{"s298", "s382"} {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				entries, err := experiments.SACompare(experiments.Default(), []string{name}, 0.5, core.DefaultAnnealOptions())
				if err != nil {
					b.Fatal(err)
				}
				ratio = entries[0].Ratio
			}
			b.ReportMetric(ratio, "anneal/heuristic(x)")
		})
	}
}

// BenchmarkMultiVt exercises the paper's n_v > 1 extension: energy as the
// number of distinct thresholds grows.
func BenchmarkMultiVt(b *testing.B) {
	for _, nv := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("nv=%d", nv), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				p := problemFor(b, "s298", 0.5)
				var err error
				res, err = p.OptimizeMultiVt(nv, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Energy.Total()*1e15, "fJ/cycle")
			b.ReportMetric(float64(len(res.VtsValues)), "distinct-Vt")
		})
	}
}

// BenchmarkProcedure2 measures the heuristic's runtime per circuit — the
// paper reports 5–20 s on 1997 hardware; the O(M³) evaluation count is
// reported alongside. The s100k case runs the full joint flow on a
// 100,000-gate random-logic network (coarser M = 8 bisection, and
// WidthPasses = 6: at 10⁵ gates the width fixed-point needs the extra sweeps
// for the drift tail of its 100k budget checks to settle inside the
// verification tolerance).
func BenchmarkProcedure2(b *testing.B) {
	for _, name := range []string{"s298", "s510", "s100k"} {
		b.Run(name, func(b *testing.B) {
			var evals int
			var probes int64
			for i := 0; i < b.N; i++ {
				var p *core.Problem
				o := core.DefaultOptions()
				if name == "s100k" {
					p = problemForScale(b, name, 0.5)
					o.M = 8
					o.WidthPasses = 6
				} else {
					p = problemFor(b, name, 0.5)
				}
				probes0 := p.Eval.Metrics().WidthProbes
				res, err := p.OptimizeJoint(o)
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Evaluations
				probes = p.Eval.Metrics().WidthProbes - probes0
			}
			b.ReportMetric(float64(evals), "circuit-evals")
			b.ReportMetric(float64(probes), "width-probes")
		})
	}
}

// BenchmarkAblationBudgeting compares Procedure 1's criticality-driven
// fanout-proportional budgets against naive uniform budgets (cycle budget
// divided by circuit depth for every gate). The metric is the energy ratio
// of the naive scheme over Procedure 1 (> 1: Procedure 1 wins). See
// EXPERIMENTS.md for the discussion — on shallow circuits with a rich
// intrinsic delay component uniform budgeting is competitive; on deep
// hub-heavy circuits Procedure 1's criticality ordering matters.
func BenchmarkAblationBudgeting(b *testing.B) {
	for _, name := range []string{"s298", "s344"} {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				p := problemFor(b, name, 0.5)
				smart, err := p.OptimizeJoint(core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}

				pu := problemFor(b, name, 0.5)
				depth, err := pu.C.Depth()
				if err != nil {
					b.Fatal(err)
				}
				uniform := pu.CycleBudget() / float64(depth)
				for id := range pu.Budgets.TMax {
					if pu.C.Gate(id).IsLogic() {
						pu.Budgets.TMax[id] = uniform
					}
				}
				naive, err := pu.OptimizeJoint(core.DefaultOptions())
				if err != nil {
					// Uniform budgets can be outright infeasible; report a
					// large ratio rather than failing the bench.
					ratio = 10
					continue
				}
				ratio = naive.Energy.Total() / smart.Energy.Total()
			}
			b.ReportMetric(ratio, "uniform/procedure1(x)")
		})
	}
}

// BenchmarkAblationSteering compares the paper's directional bisection with
// the golden-section-refined search (Options.Refine), checking how much the
// monotonicity assumption leaves on the table.
func BenchmarkAblationSteering(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		p := problemFor(b, "s298", 0.5)
		plain, err := p.OptimizeJoint(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		o := core.DefaultOptions()
		o.Refine = true
		refined, err := p.OptimizeJoint(o)
		if err != nil {
			b.Fatal(err)
		}
		gain = plain.Energy.Total() / refined.Energy.Total()
	}
	b.ReportMetric(gain, "bisection/refined(x)")
}

// BenchmarkAblationWidthIteration compares the paper's literal single-pass
// width solve (WidthPasses = 1) against the fixed-point iteration the
// library defaults to.
func BenchmarkAblationWidthIteration(b *testing.B) {
	for _, passes := range []int{1, 4} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			var total float64
			feasible := true
			for i := 0; i < b.N; i++ {
				p := problemFor(b, "s298", 0.5)
				o := core.DefaultOptions()
				o.WidthPasses = passes
				res, err := p.OptimizeJoint(o)
				if err != nil {
					feasible = false
					continue
				}
				total = res.Energy.Total()
				feasible = res.Feasible
			}
			b.ReportMetric(total*1e15, "fJ/cycle")
			if feasible {
				b.ReportMetric(1, "feasible")
			} else {
				b.ReportMetric(0, "feasible")
			}
		})
	}
}

// BenchmarkDualVdd exercises the clustered second-supply extension. At the
// near-threshold joint optimum a second rail often collapses to a uniform
// supply adjustment (see EXPERIMENTS.md) — the metric records the gain.
func BenchmarkDualVdd(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		p := problemFor(b, "s298", 0.5)
		joint, err := p.OptimizeJoint(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		dv, err := p.OptimizeDualVdd(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		gain = joint.Energy.Total() / dv.Energy.Total()
	}
	b.ReportMetric(gain, "gain-vs-single-rail(x)")
}

// BenchmarkScalability runs the full joint flow on ISCAS'85-scale profiles
// (up to ~1700 gates), each at a clock target matched to its depth, to track
// how optimization cost grows with circuit size.
func BenchmarkScalability(b *testing.B) {
	for _, name := range []string{"c432", "c880", "c1908", "c3540"} {
		b.Run(name, func(b *testing.B) {
			cfg, err := netgen.Profile85Config(name)
			if err != nil {
				b.Fatal(err)
			}
			fc := 1 / (float64(cfg.Depth) * benchLevelDelay) // ~0.35 ns per level
			for i := 0; i < b.N; i++ {
				c, err := netgen.Profile85(name)
				if err != nil {
					b.Fatal(err)
				}
				p, err := core.NewProblem(core.Spec{
					Circuit: c, Tech: device.Default350(), Wiring: wiring.Default350(),
					Fc: fc, Skew: 0.95, InputProb: 0.5, InputDensity: 0.5,
				})
				if err != nil {
					b.Fatal(err)
				}
				o := core.DefaultOptions()
				o.M = 8 // coarser bisection keeps the big circuits tractable
				if _, err := p.OptimizeJoint(o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Gates), "gates")
		})
	}
}

// BenchmarkAblationSizingPolicy compares the paper's budget-driven width
// solve (Procedure 1 budgets + per-gate bisection) against TILOS-style
// global sensitivity sizing (no budgets; greedy upsizing on the critical
// path until timing fits). Ratio < 1 means the sensitivity policy finds a
// lower-energy design — at a much higher optimization cost.
func BenchmarkAblationSizingPolicy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		p := problemFor(b, "s298", 0.5)
		budget, err := p.OptimizeJoint(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		o := core.DefaultOptions()
		o.M = 8
		sens, err := p.OptimizeJointSensitivity(o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = sens.Energy.Total() / budget.Energy.Total()
	}
	b.ReportMetric(ratio, "sensitivity/budget(x)")
}

// BenchmarkBufferInsertion measures whether capping high-fanout nets with
// buffer trees before optimization helps: hubs concentrate criticality
// (their FoEff dominates path budgets), and splitting them trades buffer
// energy against drive energy. The metric is buffered/unbuffered total
// energy (< 1 means buffering wins).
func BenchmarkBufferInsertion(b *testing.B) {
	var ratio float64
	var bufs int
	for i := 0; i < b.N; i++ {
		c, err := netgen.Profile("s298")
		if err != nil {
			b.Fatal(err)
		}
		p := problemFor(b, "s298", 0.5)
		plain, err := p.OptimizeJoint(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}

		bc, nb, err := circuit.InsertBuffers(c, 4)
		if err != nil {
			b.Fatal(err)
		}
		bufs = nb
		pb, err := core.NewProblem(core.Spec{
			Circuit: bc, Tech: device.Default350(), Wiring: wiring.Default350(),
			Fc: 300e6, Skew: 0.95, InputProb: 0.5, InputDensity: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		buffered, err := pb.OptimizeJoint(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ratio = buffered.Energy.Total() / plain.Energy.Total()
	}
	b.ReportMetric(ratio, "buffered/plain(x)")
	b.ReportMetric(float64(bufs), "buffers")
}

// BenchmarkAblationRiseFall quantifies the paper's "symmetric pull-up /
// pull-down" assumption: the rise/fall-resolved critical delay of the
// joint-optimized design relative to the symmetric analysis it was timed
// with. A ratio above 1 is margin a sign-off with asymmetric stacks would
// demand back.
func BenchmarkAblationRiseFall(b *testing.B) {
	var baseRatio float64
	var jointStuck float64
	for i := 0; i < b.N; i++ {
		p := problemFor(b, "s298", 0.5)
		base, err := p.OptimizeBaseline(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		baseRatio = p.Eval.DelayModel().CriticalDelayRiseFall(base.Assignment) / base.CriticalDelay

		joint, err := p.OptimizeJoint(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		// At the near-threshold joint optimum, deep stacks may not switch at
		// all once drive is divided by stack depth: count them. A nonzero
		// count means the symmetric assumption is load-bearing there.
		stuck := 0
		ids, err := p.C.LogicIDs()
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			r, f := p.Eval.DelayModel().GateDelayRiseFall(id, joint.Assignment, 0)
			if r > 1 || f > 1 { // +Inf or absurd: unswitchable
				stuck++
			}
		}
		jointStuck = float64(stuck)
	}
	b.ReportMetric(baseRatio, "baseline-risefall/symmetric(x)")
	b.ReportMetric(jointStuck, "joint-unswitchable-gates")
}

// BenchmarkAblationActivityObjective asks whether the correlation-aware
// activity engine buys the *optimizer* anything: optimize s298 under the
// Najm objective and under the correlated objective, then judge both
// designs by re-pricing their dynamic energy with zero-delay Monte-Carlo
// densities (the closest thing to ground truth). A ratio below 1 means the
// correlated objective produced the genuinely better design.
func BenchmarkAblationActivityObjective(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		c, err := netgen.Profile("s298")
		if err != nil {
			b.Fatal(err)
		}
		mk := func(correlated bool) (*core.Problem, *core.Result) {
			cc, err := netgen.Profile("s298")
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProblem(core.Spec{
				Circuit: cc, Tech: device.Default350(), Wiring: wiring.Default350(),
				Fc: 300e6, Skew: 0.95, InputProb: 0.5, InputDensity: 0.5,
				CorrelatedActivity: correlated,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.OptimizeJoint(core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			return p, res
		}
		pn, najm := mk(false)
		pc, corr := mk(true)

		// Ground-truth densities from zero-delay Monte Carlo.
		in := make(map[int]activity.InputSpec, len(c.PIs))
		for _, id := range c.PIs {
			in[id] = activity.InputSpec{Prob: 0.5, Density: 0.5}
		}
		mc, err := activity.MonteCarlo(pn.C, in, 40000, 5)
		if err != nil {
			b.Fatal(err)
		}
		truth := func(p *core.Problem, res *core.Result) float64 {
			total := res.Energy.Static
			for gi := range p.C.Gates {
				if !p.C.Gates[gi].IsLogic() {
					continue
				}
				base := p.Eval.GateEnergy(gi, res.Assignment).Dynamic
				if d := p.Act.Density[gi]; d > 1e-12 {
					total += base * mc.Density[gi] / d
				}
			}
			return total
		}
		ratio = truth(pc, corr) / truth(pn, najm)
	}
	b.ReportMetric(ratio, "corr-objective/najm-objective(x)")
}

// --- Micro-benchmarks of the hot analysis paths ---

func BenchmarkSTA(b *testing.B) {
	p := problemFor(b, "s510", 0.5)
	a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval.CriticalDelay(a)
	}
}

func BenchmarkActivityPropagation(b *testing.B) {
	c, err := netgen.Profile("s510")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := activity.PropagateUniform(c, 0.5, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerTotal(b *testing.B) {
	p := problemFor(b, "s510", 0.5)
	a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval.Energy(a)
	}
}

func BenchmarkBudgetAssignment(b *testing.B) {
	c, err := netgen.Profile("s510")
	if err != nil {
		b.Fatal(err)
	}
	ta, err := timing.NewAnalysis(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.AssignBudgets(ta, 3.17e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelayModelSingleGate(b *testing.B) {
	p := problemFor(b, "s298", 0.5)
	a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
	ids, err := p.C.LogicIDs()
	if err != nil {
		b.Fatal(err)
	}
	id := ids[len(ids)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval.GateDelayWith(id, a, 1e-10)
	}
}

// BenchmarkEngineFullEval measures one full cached delay+energy evaluation
// through the engine — the steady-state cost of a Procedure 2 probe point.
// ReportAllocs guards the zero-allocation steady state: the levelized CSR
// sweeps run entirely on the engine's reusable scratch, at s510 and at the
// 100,000-gate scale profile alike.
func BenchmarkEngineFullEval(b *testing.B) {
	for _, name := range []string{"s510", "s100k"} {
		b.Run(name, func(b *testing.B) {
			var p *core.Problem
			if name == "s100k" {
				p = problemForScale(b, name, 0.5)
			} else {
				p = problemFor(b, name, 0.5)
			}
			a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Eval.CriticalDelay(a)
				p.Eval.Energy(a)
			}
			b.ReportMetric(float64(p.Eval.Metrics().CoeffMisses), "coeff-misses")
		})
	}
}

// BenchmarkEngineIncremental measures a bound width edit: re-time the dirty
// cone and re-price the touched gates instead of sweeping the circuit.
func BenchmarkEngineIncremental(b *testing.B) {
	p := problemFor(b, "s510", 0.5)
	a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
	p.Eval.Bind(a)
	defer p.Eval.Unbind()
	ids, err := p.C.LogicIDs()
	if err != nil {
		b.Fatal(err)
	}
	p.Eval.Metrics().Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		p.Eval.SetWidth(id, 2+float64(i%7))
		_ = p.Eval.BoundCriticalDelay()
		_ = p.Eval.BoundEnergy()
	}
	b.StopTimer()
	m := p.Eval.Metrics()
	if m.IncrementalEdits > 0 {
		b.ReportMetric(float64(m.DirtyGates)/float64(m.IncrementalEdits), "dirty-gates/edit")
	}
}

// workerSet is the fan-out axis of the parallel-layer benchmarks: serial,
// then the host's CPU count (skipped when that is also 1). Outputs are
// byte-identical across the axis — only wall-clock time may change.
func workerSet() []int {
	ws := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		ws = append(ws, n)
	}
	return ws
}

// BenchmarkLandscape measures the SampleLandscape grid fan-out: every cell is
// an independent width solve priced on a worker engine clone.
func BenchmarkLandscape(b *testing.B) {
	for _, w := range workerSet() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := problemFor(b, "s298", 0.5)
			opts := core.DefaultOptions()
			opts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.SampleLandscape(8, 8, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkYield measures the Monte-Carlo die fan-out: per-sample RNG
// substreams let dies land on any worker without changing the drawn bits.
func BenchmarkYield(b *testing.B) {
	p := problemFor(b, "s298", 0.5)
	res, err := p.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerSet() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.YieldStudy(res.Assignment, 0.1, 500, 42, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefine measures Procedure 2 with the Refine polish: the 9-point
// grid scan fans out and the middle loop evaluates speculative Vts
// candidates when at least three workers are available.
func BenchmarkRefine(b *testing.B) {
	for _, w := range workerSet() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Workers = w
			opts.Refine = true
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := problemFor(b, "s298", 0.5)
				b.StartTimer()
				if _, err := p.OptimizeJoint(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
