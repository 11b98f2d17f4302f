// Package eval is the unified evaluation engine: one object that owns the
// circuit, technology, wiring model, activity profile and clock, and serves
// combined delay + energy evaluation to every optimizer. The pure Appendix-A
// model formulas stay in internal/delay and internal/power; the engine is the
// only place that constructs those evaluators, and it adds the machinery that
// makes iterative optimization cheap:
//
//   - per-engine scratch buffers, so steady-state full-circuit evaluation
//     (Delays, Arrivals, CriticalDelay, Slacks, Energy) is allocation-free;
//   - a per-(V_dd, V_TS) device-coefficient cache: the slope coefficient,
//     drive current I_Dw and leakage I_off depend on the voltage pair only,
//     yet cost three transcendental evaluations per gate-delay call when
//     recomputed inline — Procedure 2 probes every gate dozens of times at a
//     fixed voltage pair, so one cached triple serves thousands of calls;
//   - width-override probes (ProbeWidth, GateDelayOverride) that answer
//     "what would this gate's delay be at width w" without the
//     mutate-and-restore pattern on the assignment, and the prepared width
//     probe (PrepareWidth, WidthProbe) that answers it for a whole width
//     search after deriving the gate's width-independent terms once;
//   - incremental re-evaluation (Bind/SetWidth in incremental.go): editing
//     one gate's width dirties only its fanin loads and its fanout cone, not
//     the whole circuit;
//   - a standardized evaluation-effort meter (Metrics): every gate-delay
//     model call is counted, and FullEvalEquivalents converts the count into
//     full-circuit-evaluation units, the paper's O(M³) currency.
//
// An Engine is NOT safe for concurrent use: the scratch buffers and the
// tracked state are engine-owned. Give each goroutine its own Engine —
// Clone (clone.go) makes that cheap by sharing every immutable structure
// (circuit, technology, activity, wiring, model evaluators, topological
// order) and the concurrency-safe device-coefficient cache, allocating only
// fresh scratch. Parallel drivers build one clone per worker through
// internal/parallel.
package eval

import (
	"fmt"
	"math"
	"time"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/delay"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/power"
	"cmosopt/internal/wiring"
)

// maxCoeffEntries bounds the shared coefficient cache. Optimizers visit a
// handful of voltage pairs per run, but Monte-Carlo studies draw a fresh V_TS
// per gate per die; a shard that fills is cleared rather than grown without
// bound (see clone.go).
const maxCoeffEntries = 4096

type coeffKey struct {
	vdd float64 //cmosvet:unit V
	vts float64 //cmosvet:unit V
}

// Engine evaluates delay and energy for one circuit under one technology,
// wiring model, activity profile and clock frequency.
type Engine struct {
	C    *circuit.Circuit
	Tech *device.Tech
	Act  *activity.Profile
	Wire *wiring.Model
	Fc   float64 //cmosvet:unit Hz

	dm *delay.Evaluator
	pm *power.Evaluator // nil for a delay-only engine

	cs       *circuit.CSR // levelized struct-of-arrays view, shared by clones
	numLogic int

	// Device-coefficient cache: a private single-entry fast path (within one
	// optimizer probe sequence nearly every call shares one voltage pair)
	// over a sharded concurrency-safe map shared with all clones.
	lastKey   coeffKey
	lastCoeff delay.Coeffs
	haveLast  bool
	cache     *CoeffCache

	// Scratch for the full-evaluation APIs (valid until the next Engine call).
	td    []float64 //cmosvet:unit s
	arr   []float64 //cmosvet:unit s
	req   []float64 //cmosvet:unit s
	slack []float64 //cmosvet:unit s

	// Tracked state for incremental evaluation (see incremental.go).
	bound   *design.Assignment
	curTd   []float64 //cmosvet:unit s
	curArr  []float64 //cmosvet:unit s
	stE     []float64 //cmosvet:unit J
	dyE     []float64 //cmosvet:unit J
	dirty   []int     // binary heap of gate IDs ordered by rank
	inDirty []bool

	met Metrics

	// The engine's prepared width probe (PrepareWidth); its load scratch
	// is sized for the circuit's largest fanout.
	probe WidthProbe

	// Optional observability sink (obs.go). Write-only from evaluation's
	// perspective: nothing here feeds back into any result.
	sink    *obsSink
	flushed Metrics // Metrics already exported by FlushObs
	primary bool    // set by New/NewDelayOnly, false on clones (see FlushObs)
}

// New builds the evaluation engine for a combinational circuit, constructing
// the delay and power model evaluators internally.
//
//cmosvet:unit fc Hz
func New(c *circuit.Circuit, tech *device.Tech, act *activity.Profile, wire *wiring.Model, fc float64) (*Engine, error) {
	e, err := NewDelayOnly(c, tech, wire)
	if err != nil {
		return nil, err
	}
	pm, err := power.New(c, tech, act, wire, fc)
	if err != nil {
		return nil, err
	}
	e.Act = act
	e.Fc = fc
	e.pm = pm
	return e, nil
}

// NewDelayOnly builds an engine without an energy model (no activity profile
// or clock needed) — enough for timing-only consumers such as the logic
// simulator's tests. Energy methods panic on a delay-only engine.
func NewDelayOnly(c *circuit.Circuit, tech *device.Tech, wire *wiring.Model) (*Engine, error) {
	dm, err := delay.New(c, tech, wire)
	if err != nil {
		return nil, err
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		C:        c,
		Tech:     tech,
		Wire:     wire,
		dm:       dm,
		cs:       cs,
		numLogic: c.NumLogic(),
		cache:    NewCoeffCache(),
		primary:  true,
		td:       make([]float64, c.N()),
		arr:      make([]float64, c.N()),
	}
	e.probe = WidthProbe{met: &e.met, d: dm.NewPrepared()}
	return e, nil
}

// DelayModel exposes the underlying pure delay evaluator for model-level
// analyses the engine does not cache (rise/fall resolution, the simulator).
func (e *Engine) DelayModel() *delay.Evaluator { return e.dm }

// Metrics returns the engine's evaluation counters.
func (e *Engine) Metrics() *Metrics { return &e.met }

// FullEvalEquivalents converts the gate-delay call count into full-circuit
// evaluation units: one unit is one delay-model call per logic gate.
//
//cmosvet:unit return 1
func (e *Engine) FullEvalEquivalents() float64 {
	return float64(e.met.GateDelayCalls) / float64(max(e.numLogic, 1))
}

// coeffs returns the cached device coefficients of one voltage pair.
//
//cmosvet:hotpath
//cmosvet:unit vdd V
//cmosvet:unit vts V
func (e *Engine) coeffs(vdd, vts float64) delay.Coeffs {
	k := coeffKey{vdd, vts}
	if e.haveLast && k == e.lastKey {
		e.met.CoeffHits++
		return e.lastCoeff
	}
	c, ok := e.cache.lookup(k)
	if !ok {
		// CoeffsAt is a pure function of the pair, so a concurrent clone
		// computing the same key stores an identical value — losing the
		// store race never changes a result.
		e.met.CoeffMisses++
		c = e.dm.CoeffsAt(vdd, vts)
		e.cache.store(k, c)
	} else {
		e.met.CoeffHits++
	}
	e.lastKey, e.lastCoeff, e.haveLast = k, c, true
	return c
}

// gateDelay evaluates gate id's delay at width w through the coefficient
// cache. It is the single funnel every delay number flows through, which is
// what makes the GateDelayCalls counter a faithful effort meter.
//
//cmosvet:hotpath
//cmosvet:unit w 1
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
func (e *Engine) gateDelay(id int, a *design.Assignment, w, maxFaninDelay float64) float64 {
	e.met.GateDelayCalls++
	return e.dm.GateDelayAt(id, a, w, -1, 0, maxFaninDelay, e.coeffs(a.VddAt(id), a.Vts[id]))
}

// GateDelayWith returns t_di of one gate given the largest fanin gate delay,
// evaluated through the coefficient cache. Input gates have zero delay.
//
//cmosvet:hotpath
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
func (e *Engine) GateDelayWith(id int, a *design.Assignment, maxFaninDelay float64) float64 {
	if !e.cs.IsLogic[id] {
		return 0
	}
	return e.gateDelay(id, a, a.W[id], maxFaninDelay)
}

// ProbeWidth returns gate id's delay as if its width were w, without touching
// the assignment — the width-override API that replaces the save/restore
// mutation pattern in the width solver.
//
//cmosvet:hotpath
//cmosvet:unit w 1
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
func (e *Engine) ProbeWidth(id int, a *design.Assignment, w, maxFaninDelay float64) float64 {
	e.met.WidthProbes++
	return e.gateDelay(id, a, w, maxFaninDelay)
}

// WidthProbe is one gate's delay prepared for a width search: Procedure 2
// evaluates a gate at a dozen widths while its voltages, fanin delay and
// fanout widths stay fixed, so PrepareWidth derives everything else once
// and each At applies only the probed width. Its results are bitwise equal
// to ProbeWidth's, and it counts the same work.
type WidthProbe struct {
	met *Metrics
	d   delay.Prepared
}

// PrepareWidth prepares gate id for a width search at a's voltages and
// fanout widths and the given largest fanin delay, with one coefficient
// lookup, and returns the engine's probe. The probe is engine scratch,
// valid until the next PrepareWidth on this engine and only while id's
// voltages and its fanouts' widths in a stay unchanged.
//
//cmosvet:hotpath
//cmosvet:unit maxFaninDelay s
func (e *Engine) PrepareWidth(id int, a *design.Assignment, maxFaninDelay float64) *WidthProbe {
	e.dm.Prepare(&e.probe.d, id, a, maxFaninDelay, e.coeffs(a.VddAt(id), a.Vts[id]))
	return &e.probe
}

// At returns the prepared gate's delay at width w. It is one width probe:
// it counts as ProbeWidth does, in WidthProbes and GateDelayCalls.
//
//cmosvet:hotpath
//cmosvet:unit w 1
//cmosvet:unit return s
func (p *WidthProbe) At(w float64) float64 {
	p.met.WidthProbes++
	p.met.GateDelayCalls++
	return p.d.At(w)
}

// Settled returns the prepared gate's delay at the width its search settled
// on. It counts as GateDelayWith does, in GateDelayCalls only: it is the
// gate's own delay, not a probe.
//
//cmosvet:hotpath
//cmosvet:unit w 1
//cmosvet:unit return s
func (p *WidthProbe) Settled(w float64) float64 {
	p.met.GateDelayCalls++
	return p.d.At(w)
}

// GateDelayOverride returns gate id's delay with gate ov's width taken as wOv
// wherever it appears: id's own switching width when ov == id, or the input
// load ov presents when it is one of id's fanouts. ov = -1 evaluates the
// assignment as is. Sensitivity sizers use this to score a neighbor's width
// move without mutating the assignment.
//
//cmosvet:hotpath
//cmosvet:unit wOv 1
//cmosvet:unit maxFaninDelay s
//cmosvet:unit return s
func (e *Engine) GateDelayOverride(id int, a *design.Assignment, ov int, wOv, maxFaninDelay float64) float64 {
	if !e.cs.IsLogic[id] {
		return 0
	}
	e.met.WidthProbes++
	e.met.GateDelayCalls++
	w := a.W[id]
	if ov == id {
		w = wOv
	}
	return e.dm.GateDelayAt(id, a, w, ov, wOv, maxFaninDelay, e.coeffs(a.VddAt(id), a.Vts[id]))
}

// SlopeCoeff returns the input-rise-time coefficient of one voltage pair.
//
//cmosvet:unit vdd V
//cmosvet:unit vts V
//cmosvet:unit return 1
func (e *Engine) SlopeCoeff(vdd, vts float64) float64 { return e.dm.SlopeCoeff(vdd, vts) }

// delaysInto computes per-gate delays into dst, walking the CSR level by
// level. Within a level the gates follow the topological order, so the
// sequence of model calls — and therefore every cached value and counter —
// matches the legacy flat walk exactly.
//
//cmosvet:hotpath
//cmosvet:unit dst s
func (e *Engine) delaysInto(dst []float64, a *design.Assignment) {
	e.met.FullDelaySweeps++
	var t0 time.Time
	if e.sink != nil {
		t0 = time.Now() //cmosvet:allow determinism — sweep latency feeds an obs histogram only, never a result
	}
	cs := e.cs
	for _, id := range cs.LevelGates(0) {
		dst[id] = 0 // level 0 is inputs (and zero-delay pseudo-inputs)
	}
	for l := 1; l < cs.NumLevels(); l++ {
		for _, id := range cs.LevelGates(l) {
			if !cs.IsLogic[id] {
				dst[id] = 0 // a feed-forward DFF in a delay-only engine
				continue
			}
			maxIn := 0.0
			for _, f := range cs.Fanins(id) {
				if dst[f] > maxIn {
					maxIn = dst[f]
				}
			}
			dst[id] = e.gateDelay(int(id), a, a.W[id], maxIn)
		}
	}
	if e.sink != nil {
		//cmosvet:allow determinism — sweep latency feeds an obs histogram only, never a result
		e.sink.sweepNS.ObserveDuration(time.Since(t0))
	}
}

// arrivalsInto computes worst arrival times from the delays in td into dst.
//
//cmosvet:hotpath
//cmosvet:unit dst s
//cmosvet:unit td s
func (e *Engine) arrivalsInto(dst, td []float64) {
	cs := e.cs
	for _, id := range cs.LevelGates(0) {
		dst[id] = td[id]
	}
	for l := 1; l < cs.NumLevels(); l++ {
		for _, id := range cs.LevelGates(l) {
			maxIn := 0.0
			for _, f := range cs.Fanins(id) {
				if dst[f] > maxIn {
					maxIn = dst[f]
				}
			}
			dst[id] = maxIn + td[id]
		}
	}
}

// Delays returns the per-gate delay t_di for the whole network. The returned
// slice is engine scratch: read it before the next Engine call, copy to keep.
//
//cmosvet:hotpath
//cmosvet:unit return s
func (e *Engine) Delays(a *design.Assignment) []float64 {
	e.delaysInto(e.td, a)
	return e.td
}

// Arrivals returns per-gate worst arrival times and per-gate delays, in
// engine scratch (valid until the next Engine call).
//
//cmosvet:hotpath
//cmosvet:unit return1 s
//cmosvet:unit return2 s
func (e *Engine) Arrivals(a *design.Assignment) (arr, td []float64) {
	e.delaysInto(e.td, a)
	e.arrivalsInto(e.arr, e.td)
	return e.arr, e.td
}

// CriticalDelay returns the worst path delay from any input to any primary
// output, allocation-free.
//
//cmosvet:hotpath
//cmosvet:unit return s
func (e *Engine) CriticalDelay(a *design.Assignment) float64 {
	arr, _ := e.Arrivals(a)
	worst := 0.0
	for _, id := range e.C.POs {
		if arr[id] > worst {
			worst = arr[id]
		}
	}
	return worst
}

// CriticalPath returns the gate IDs of a worst path and its delay
// (delegated to the model evaluator; this path is not performance-critical).
//
//cmosvet:unit return2 s
func (e *Engine) CriticalPath(a *design.Assignment) ([]int, float64) {
	e.met.FullDelaySweeps++
	e.met.GateDelayCalls += int64(e.numLogic)
	return e.dm.CriticalPath(a)
}

// Slacks runs a full required-time analysis against the cycle budget T into
// engine scratch (valid until the next Engine call).
//
//cmosvet:hotpath
//cmosvet:unit T s
//cmosvet:unit return s
func (e *Engine) Slacks(a *design.Assignment, T float64) []float64 {
	e.delaysInto(e.td, a)
	e.arrivalsInto(e.arr, e.td)
	return e.slacksFrom(e.td, e.arr, T)
}

// slacksFrom computes slacks from already-known delays and arrivals — pure
// graph propagation, no device-model calls.
//
//cmosvet:hotpath
//cmosvet:unit td s
//cmosvet:unit arr s
//cmosvet:unit T s
//cmosvet:unit return s
func (e *Engine) slacksFrom(td, arr []float64, T float64) []float64 {
	//cmosvet:allow hotalloc — one-time lazy init of slack scratch; every later sweep reuses it (0 allocs/op steady state)
	if e.req == nil {
		e.req = make([]float64, e.C.N())
		e.slack = make([]float64, e.C.N())
	}
	req := e.req
	for i := range req {
		req[i] = math.Inf(1)
	}
	for _, id := range e.C.POs {
		if T < req[id] {
			req[id] = T
		}
	}
	cs := e.cs
	for l := cs.NumLevels() - 1; l >= 0; l-- {
		lg := cs.LevelGates(l)
		for i := len(lg) - 1; i >= 0; i-- {
			id := lg[i]
			for _, f := range cs.Fanouts(id) {
				if r := req[f] - td[f]; r < req[id] {
					req[id] = r
				}
			}
		}
	}
	for i := range e.slack {
		e.slack[i] = req[i] - arr[i]
	}
	return e.slack
}

// gateEnergy evaluates one gate's energy through the coefficient cache.
//
//cmosvet:hotpath
func (e *Engine) gateEnergy(id int, a *design.Assignment) power.Breakdown {
	if !e.cs.IsLogic[id] {
		return power.Breakdown{}
	}
	e.met.GateEnergyCalls++
	k := e.coeffs(a.VddAt(id), a.Vts[id])
	return e.pm.GateEnergyCoeff(id, a, k.Ioff)
}

// GateEnergy returns the per-cycle energy breakdown of one gate.
func (e *Engine) GateEnergy(id int, a *design.Assignment) power.Breakdown {
	e.mustPower()
	return e.gateEnergy(id, a)
}

// Energy returns the whole-network per-cycle energy breakdown (the paper's
// cost function Σ E_si + E_di), evaluated through the coefficient cache.
//
//cmosvet:hotpath
func (e *Engine) Energy(a *design.Assignment) power.Breakdown {
	e.mustPower()
	e.met.FullEnergySweeps++
	var sum power.Breakdown
	for i := range e.C.Gates {
		sum.Add(e.gateEnergy(i, a))
	}
	return sum
}

// AvgPower converts a per-cycle energy into average power (W) at the
// engine's clock frequency.
//
//cmosvet:unit return W
func (e *Engine) AvgPower(b power.Breakdown) float64 {
	e.mustPower()
	return e.pm.Power(b)
}

func (e *Engine) mustPower() {
	if e.pm == nil {
		panic(fmt.Sprintf("eval: engine for %q was built with NewDelayOnly; energy is unavailable", e.C.Name))
	}
}
