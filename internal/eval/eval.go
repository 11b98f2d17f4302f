// Package eval is the unified evaluation engine: one object that owns the
// circuit, technology, wiring model, activity profile and clock, and serves
// combined delay + energy evaluation to every optimizer. The pure Appendix-A
// model formulas stay in internal/delay and internal/power; the engine is the
// only place that constructs those evaluators, and it adds the machinery that
// makes iterative optimization cheap:
//
//   - one full-circuit delay sweep: Delays, CriticalDelay and Bind's
//     refresh gather the assignment's widths into the engine's width-kernel
//     scratch, run WidthDelays over the circuit's width table and then one
//     arrival pass in the same order, so every full-circuit delay in the
//     engine is formed by one loop. The table is built on first use and
//     shared by clones; each engine's scratch is its own, so steady-state
//     full-circuit evaluation (with Energy) is allocation-free;
//   - a per-(V_dd, V_TS) device-coefficient cache: the slope coefficient,
//     drive current I_Dw and leakage I_off depend on the voltage pair only,
//     yet cost three transcendental evaluations per gate-delay call when
//     recomputed inline — Procedure 2 probes every gate dozens of times at a
//     fixed voltage pair, so one cached triple serves thousands of calls.
//     Each engine owns its cache, so no lookup takes a lock;
//   - width-override probes (ProbeWidth, GateDelayOverride) that answer
//     "what would this gate's delay be at width w" without the
//     mutate-and-restore pattern on the assignment;
//   - the width kernel (SizeWidths, widths.go): Procedure 2's width passes
//     as one fused loop over the solve-order gate table. A probe is one
//     width a search tests, answered by Eq. A3's closed form c0 + c1/w
//     when that decides it and by the term-by-term sum otherwise, with the
//     same verdict either way. The solve verifies its budgets with
//     WidthDelays on the widths the passes left;
//   - incremental re-evaluation (Bind/SetWidth in incremental.go): editing
//     one gate's width dirties only its fanin loads and its fanout cone, not
//     the whole circuit;
//   - a standardized evaluation-effort meter (Metrics): every gate-delay
//     model call and every width probe is counted, however it is answered,
//     and FullEvalEquivalents converts the count into
//     full-circuit-evaluation units, the paper's O(M³) currency.
//
// An Engine is NOT safe for concurrent use: the scratch buffers, the
// coefficient cache and the tracked state are engine-owned. Give each
// goroutine its own Engine — Clone (clone.go) makes that cheap by sharing
// every immutable structure (circuit, technology, activity, wiring, model
// evaluators, topological order, width table) and starting with an empty
// coefficient cache and no scratch. Parallel drivers build one clone per
// worker through internal/parallel.
package eval

import (
	"math"
	"sync"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/delay"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/power"
	"cmosopt/internal/wiring"
)

// maxCoeffEntries bounds an engine's coefficient cache. Optimizers visit a
// handful of voltage pairs per run, but Monte-Carlo studies draw a fresh V_TS
// per gate per die; a full cache is cleared rather than grown without bound.
const maxCoeffEntries = 4096

type coeffKey struct {
	vdd float64
	vts float64
}

// coeffEntry is one voltage pair's cached coefficients, with its
// per-fanin-count width constants: nil until a width pass first sizes a
// gate at the pair (see widthRow).
type coeffEntry struct {
	k   delay.Coeffs
	row []fanConst
}

// Engine evaluates delay and energy for one circuit under one technology,
// wiring model, activity profile and clock frequency.
type Engine struct {
	C    *circuit.Circuit
	Tech *device.Tech
	Act  *activity.Profile
	Wire *wiring.Model
	Fc   float64

	dm *delay.Evaluator
	pm *power.Evaluator

	cs       *circuit.CSR // levelized struct-of-arrays view, shared by clones
	numLogic int

	// table returns the width kernel's gate table, building it on the
	// first call of the engine or any of its clones, which share it; ws is
	// this engine's scratch over it (nil until first use).
	table func() *widthTable
	ws    *WidthScratch

	// Device-coefficient cache: a single-entry fast path (within one
	// optimizer probe sequence nearly every call shares one voltage pair)
	// over a map of the pairs this engine has priced. Clones start empty:
	// almost no pair one worker prices is priced by another.
	lastKey  coeffKey
	last     coeffEntry
	haveLast bool
	cache    map[coeffKey]coeffEntry

	// The width kernel's per-fanin-count constants come in rows of
	// fanStride, one per voltage pair it sizes at, carved from blocks of
	// fanBlockRows rows; fanFree is the current block's unused tail.
	fanFree   []fanConst
	fanStride int

	// Gate-ID scratch of Delays and the slacks, allocated on first use
	// (valid until the next Engine call).
	td    []float64
	req   []float64
	slack []float64

	// Tracked state for incremental evaluation (see incremental.go).
	bound   *design.Assignment
	curTd   []float64
	curArr  []float64
	dirty   []int // binary heap of gate IDs ordered by rank
	inDirty []bool

	met Metrics

	// Optional observability sink (obs.go). Write-only from evaluation's
	// perspective: nothing here feeds back into any result.
	sink    *obsSink
	flushed Metrics // Metrics already exported by FlushObs
	primary bool    // set by New, false on clones (see FlushObs)
}

// New builds the evaluation engine for a combinational circuit, constructing
// the delay and power model evaluators internally.
func New(c *circuit.Circuit, tech *device.Tech, act *activity.Profile, wire *wiring.Model, fc float64) (*Engine, error) {
	dm, err := delay.New(c, tech, wire)
	if err != nil {
		return nil, err
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	pm, err := power.New(c, tech, act, wire, fc)
	if err != nil {
		return nil, err
	}
	stride := fanStride(cs)
	return &Engine{
		C:         c,
		Tech:      tech,
		Act:       act,
		Wire:      wire,
		Fc:        fc,
		dm:        dm,
		pm:        pm,
		cs:        cs,
		numLogic:  c.NumLogic(),
		table:     sync.OnceValue(func() *widthTable { return newWidthTable(cs, stride) }),
		cache:     make(map[coeffKey]coeffEntry),
		fanStride: stride,
		primary:   true,
	}, nil
}

// DelayModel exposes the underlying pure delay evaluator for model-level
// analyses the engine does not cache (the event simulator, critical-delay
// cross-checks).
func (e *Engine) DelayModel() *delay.Evaluator { return e.dm }

// Metrics returns the engine's evaluation counters.
func (e *Engine) Metrics() *Metrics { return &e.met }

// FullEvalEquivalents converts the gate-delay call count into full-circuit
// evaluation units: one unit is one delay-model call per logic gate.
func (e *Engine) FullEvalEquivalents() float64 {
	return float64(e.met.GateDelayCalls) / float64(max(e.numLogic, 1))
}

// coeffs returns the cached device coefficients of one voltage pair.
//
//cmosvet:hotpath
func (e *Engine) coeffs(vdd, vts float64) delay.Coeffs {
	k := coeffKey{vdd, vts}
	if e.haveLast && k == e.lastKey {
		e.met.CoeffHits++
		return e.last.k
	}
	c, ok := e.cache[k]
	if ok {
		e.met.CoeffHits++
	} else {
		e.met.CoeffMisses++
		c = coeffEntry{k: e.dm.CoeffsAt(vdd, vts)}
		if len(e.cache) >= maxCoeffEntries {
			clear(e.cache)
		}
		e.cache[k] = c
	}
	e.lastKey, e.last, e.haveLast = k, c, true
	return c.k
}

// gateDelay evaluates gate id's delay at width w through the coefficient
// cache. It is the single funnel every delay number flows through, which is
// what makes the GateDelayCalls counter a faithful effort meter.
//
//cmosvet:hotpath
func (e *Engine) gateDelay(id int, a *design.Assignment, w, maxFaninDelay float64) float64 {
	e.met.GateDelayCalls++
	return e.dm.GateDelayAt(id, a, w, -1, 0, maxFaninDelay, e.coeffs(a.VddAt(id), a.Vts[id]))
}

// GateDelayWith returns t_di of one gate given the largest fanin gate delay,
// evaluated through the coefficient cache. Input gates have zero delay.
//
//cmosvet:hotpath
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
func (e *Engine) ProbeWidth(id int, a *design.Assignment, w, maxFaninDelay float64) float64 {
	e.met.WidthProbes++
	return e.gateDelay(id, a, w, maxFaninDelay)
}

// GateDelayOverride returns gate id's delay with gate ov's width taken as wOv
// wherever it appears: id's own switching width when ov == id, or the input
// load ov presents when it is one of id's fanouts. ov = -1 evaluates the
// assignment as is. Sensitivity sizers use this to score a neighbor's width
// move without mutating the assignment.
//
//cmosvet:hotpath
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
func (e *Engine) SlopeCoeff(vdd, vts float64) float64 { return e.dm.SlopeCoeff(vdd, vts) }

// WidthScratch returns the engine's width-kernel scratch. The first call
// builds it over the circuit's width table, which the first of the engine
// and its clones to need it builds.
//
//cmosvet:hotpath
func (e *Engine) WidthScratch() *WidthScratch {
	//cmosvet:allow hotalloc — once per engine (the table once per circuit); every later call allocates nothing
	if e.ws == nil {
		e.ws = e.table().newScratch()
	}
	return e.ws
}

// sweep is the engine's one full-circuit delay sweep: it gathers a's widths
// into the engine's scratch, re-times every gate with WidthDelays and forms
// the arrivals in the same order, leaving both in the scratch by solve
// position. It returns the worst primary-output arrival. It bills what
// WidthDelays bills; the arrival pass makes no model call.
//
//cmosvet:hotpath
func (e *Engine) sweep(a *design.Assignment) float64 {
	s := e.WidthScratch()
	s.gather(a)
	e.WidthDelays(s, a)
	return s.arrivals()
}

// Delays returns the per-gate delay t_di for the whole network. The returned
// slice is engine scratch, allocated on the first call: read it before the
// next Engine call, copy to keep.
//
//cmosvet:hotpath
func (e *Engine) Delays(a *design.Assignment) []float64 {
	e.sweep(a)
	//cmosvet:allow hotalloc — one-time lazy init of the gate-ID scratch; every later sweep reuses it (0 allocs/op steady state)
	if e.td == nil {
		e.td = make([]float64, e.C.N())
	}
	e.ws.scatter(e.td, e.ws.Delay)
	return e.td
}

// CriticalDelay returns the worst path delay from any input to any primary
// output, allocation-free.
//
//cmosvet:hotpath
func (e *Engine) CriticalDelay(a *design.Assignment) float64 {
	return e.sweep(a)
}

// slacksFrom computes slacks from already-known delays and arrivals — pure
// graph propagation, no device-model calls.
//
//cmosvet:hotpath
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
	return e.gateEnergy(id, a)
}

// Energy returns the whole-network per-cycle energy breakdown (the paper's
// cost function Σ E_si + E_di), evaluated through the coefficient cache.
//
//cmosvet:hotpath
func (e *Engine) Energy(a *design.Assignment) power.Breakdown {
	e.met.FullEnergySweeps++
	var sum power.Breakdown
	for i := range e.C.Gates {
		sum.Add(e.gateEnergy(i, a))
	}
	return sum
}

// AvgPower converts a per-cycle energy into average power (W) at the
// engine's clock frequency.
func (e *Engine) AvgPower(b power.Breakdown) float64 {
	return e.pm.Power(b)
}
