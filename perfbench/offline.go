package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/cli"
	"cmosopt/internal/core"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/eval"
	"cmosopt/internal/timing"
	"cmosopt/internal/wiring"
)

// Problem constants shared with the service's defaults, so an offline solve
// renders the same bytes as a served optimize/joint request.
const (
	skew      = 0.95 //cmosvet:unit 1
	inputProb = 0.5  //cmosvet:unit 1
	inputAct  = 0.5  //cmosvet:unit 1
)

// solved is one offline optimize/joint operation: ParseBenchString →
// NewProblem → OptimizeJoint (one worker) → PrintResult.
type solved struct {
	out string
	err error
	p   *core.Problem
	res *core.Result
	met eval.Metrics // engine work of OptimizeJoint alone
	// Durations of the pipeline's stages.
	parse, elaborate, optimize, render time.Duration
}

func spec(c *circuit.Circuit, fcHz float64) core.Spec {
	return core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           fcHz,
		Skew:         skew,
		InputProb:    inputProb,
		InputDensity: inputAct,
	}
}

// solveOffline runs the offline pipeline on n, recording one span per layer
// call under parent.
func solveOffline(tr *tracer, op int64, parent int, n netlist) *solved {
	s := &solved{}
	var c *circuit.Circuit
	s.parse = tr.timed(op, parent, "circuit.parse", func(int) {
		c, s.err = circuit.ParseBenchString(n.name, n.text)
	})
	if s.err != nil {
		return s
	}
	s.elaborate = tr.timed(op, parent, "core.elaborate", func(int) {
		s.p, s.err = core.NewProblem(spec(c, n.fcHz))
	})
	if s.err != nil {
		return s
	}
	before := *s.p.Eval.Metrics()
	opts := core.DefaultOptions()
	opts.Workers = 1
	s.optimize = tr.timed(op, parent, "core.optimize", func(int) {
		s.res, s.err = s.p.OptimizeJoint(opts)
	})
	s.met = subMetrics(*s.p.Eval.Metrics(), before)
	if s.err != nil {
		return s
	}
	var buf bytes.Buffer
	s.render = tr.timed(op, parent, "cli.render", func(int) {
		cli.PrintResult(&buf, s.p, s.res)
	})
	s.out = buf.String()
	return s
}

// text is the operation's rendered output, or its error text.
func (s *solved) text() string {
	if s.err != nil {
		return "error: " + s.err.Error()
	}
	return s.out
}

// check re-times a successful result with the reference delay evaluator
// and checks its energies. It returns nil for a solver error: that is a
// failed operation, not a wrong output.
func (s *solved) check() error {
	if s.err != nil {
		return nil
	}
	r := s.res
	if !r.Feasible {
		return fmt.Errorf("%s: result returned without error but not feasible", s.p.C.Name)
	}
	ref := s.p.Eval.DelayModel().CriticalDelay(r.Assignment)
	if budget := s.p.CycleBudget(); ref > budget*(1+1e-9) {
		return fmt.Errorf("%s: reference critical delay %g s exceeds budget %g s", s.p.C.Name, ref, budget)
	}
	for _, e := range []float64{r.Energy.Static, r.Energy.Dynamic} {
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return fmt.Errorf("%s: energy %g J not finite and non-negative", s.p.C.Name, e)
		}
	}
	return nil
}

func subMetrics(a, b eval.Metrics) eval.Metrics {
	return eval.Metrics{
		GateDelayCalls:   a.GateDelayCalls - b.GateDelayCalls,
		GateEnergyCalls:  a.GateEnergyCalls - b.GateEnergyCalls,
		FullDelaySweeps:  a.FullDelaySweeps - b.FullDelaySweeps,
		FullEnergySweeps: a.FullEnergySweeps - b.FullEnergySweeps,
		WidthProbes:      a.WidthProbes - b.WidthProbes,
		IncrementalEdits: a.IncrementalEdits - b.IncrementalEdits,
		DirtyGates:       a.DirtyGates - b.DirtyGates,
		CoeffHits:        a.CoeffHits - b.CoeffHits,
		CoeffMisses:      a.CoeffMisses - b.CoeffMisses,
	}
}

// layerSample is what the layer probes measure on one input.
type layerSample struct {
	solve                *solved
	activity, procedure1 time.Duration
	heapPerGate          float64       // live heap bytes added by parse + NewProblem, per gate
	widthProbeNs         float64       // per ProbeWidth call
	fullSweep            time.Duration // CriticalDelay + Energy
	incrEdit             time.Duration // per SetWidth + BoundCriticalDelay
}

// probeLayers measures the layers on input n after its operation, outside
// the operation's span: Najm activity propagation, Procedure 1, the live
// heap of an elaborated problem, and the engine's probe, sweep and
// incremental paths on the solved assignment. s is the offline solve of n.
func probeLayers(tr *tracer, op int64, n netlist, s *solved) layerSample {
	root := tr.begin(op, -1, "probe")
	defer tr.end(root)
	ls := layerSample{solve: s}
	if s.p == nil {
		return ls
	}
	c := s.p.C

	ls.activity = tr.timed(op, root, "activity.propagate", func(int) {
		specs := make(map[int]activity.InputSpec, len(c.PIs))
		for _, id := range c.PIs {
			specs[id] = activity.InputSpec{Prob: inputProb, Density: inputAct}
		}
		_, _ = activity.Propagate(c, specs) // elaboration already succeeded on c
	})
	ls.procedure1 = tr.timed(op, root, "timing.procedure1", func(int) {
		ta, err := timing.NewAnalysis(c)
		if err != nil {
			return
		}
		bres, err := timing.AssignBudgets(ta, s.p.CycleBudget())
		if err != nil {
			return
		}
		_, _ = timing.RepairBudgets(ta, bres, 0.16, 0.75) // NewProblem's defaults
	})
	ls.heapPerGate = heapPerGate(n)

	a := design.Uniform(c.N(), s.p.Tech.VddMax, 0.1, s.p.Tech.WMin)
	if s.res != nil {
		a = s.res.Assignment.Clone()
	}
	eng := s.p.Eval
	ls.widthProbeNs = probeWidths(tr, op, root, eng, c, a)
	var sweeps []time.Duration
	for r := 0; r < 5; r++ {
		sweeps = append(sweeps, tr.timed(op, root, "eval.full_sweep", func(int) {
			_ = eng.CriticalDelay(a)
			_ = eng.Energy(a)
		}))
	}
	ls.fullSweep = quantile(sweeps, 0.5)
	ls.incrEdit = probeIncremental(tr, op, root, eng, c, a)
	return ls
}

// heapProbeGates is the fewest gates heapPerGate elaborates, in copies of
// one netlist, so that a small circuit's live heap stands out from the
// noise of the rest of the heap.
const heapProbeGates = 20000

// heapPerGate elaborates copies of n afresh between two collections and
// returns the live-heap growth per logic gate.
func heapPerGate(n netlist) float64 {
	copies := max(1, (heapProbeGates+n.gates-1)/max(n.gates, 1))
	ps := make([]*core.Problem, 0, copies)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for k := 0; k < copies; k++ {
		c, err := circuit.ParseBenchString(n.name, n.text)
		if err != nil {
			return 0
		}
		p, err := core.NewProblem(spec(c, n.fcHz))
		if err != nil {
			return 0
		}
		ps = append(ps, p)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(ps)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(copies*ps[0].C.NumLogic())
}

// probeWidths times ProbeWidth over every logic gate (five passes, median
// pass) and returns the nanoseconds per call.
func probeWidths(tr *tracer, op int64, parent int, eng *eval.Engine, c *circuit.Circuit, a *design.Assignment) float64 {
	td := append([]float64(nil), eng.Delays(a)...)
	ids, err := c.LogicIDs()
	if err != nil || len(ids) == 0 {
		return 0
	}
	maxIn := make([]float64, len(ids))
	for k, id := range ids {
		for _, f := range c.Gates[id].Fanin {
			maxIn[k] = max(maxIn[k], td[f])
		}
	}
	var passes []time.Duration
	for r := 0; r < 5; r++ {
		passes = append(passes, tr.timed(op, parent, "eval.width_probe", func(int) {
			for k, id := range ids {
				_ = eng.ProbeWidth(id, a, a.W[id]*1.25, maxIn[k])
			}
		}))
	}
	return float64(quantile(passes, 0.5).Nanoseconds()) / float64(len(ids))
}

// probeIncremental binds a copy of a, widens 64 evenly spaced gates one at
// a time re-reading the critical delay after each, and returns the median
// time per edit.
func probeIncremental(tr *tracer, op int64, parent int, eng *eval.Engine, c *circuit.Circuit, a *design.Assignment) time.Duration {
	ids, err := c.LogicIDs()
	if err != nil || len(ids) == 0 {
		return 0
	}
	b := a.Clone()
	var edits []time.Duration
	tr.timed(op, parent, "eval.incremental", func(int) {
		eng.Bind(b)
		defer eng.Unbind()
		const n = 64
		for k := 0; k < n; k++ {
			id := ids[k*len(ids)/n]
			start := time.Now()
			eng.SetWidth(id, b.W[id]*1.25)
			_ = eng.BoundCriticalDelay()
			edits = append(edits, time.Since(start))
		}
	})
	return quantile(edits, 0.5)
}
