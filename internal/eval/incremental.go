package eval

import "cmosopt/internal/design"

// Incremental evaluation. Bind attaches the engine to one assignment and
// computes its full timing state once; after that, a width edit (SetWidth)
// re-evaluates only the gates it can reach: a width change at gate i
// re-prices gate i itself (its own switching width) and its logic fanins
// (their output load includes w_i·C_t and the worst interconnect branch),
// then propagates delay/arrival changes through the fanout cone in
// topological-rank order, stopping wherever both t_d and arrival are
// bitwise unchanged. The one caller, the sensitivity flow, reads delays
// only, so the bound state carries no energy.
//
// Bind's refresh is the engine's full sweep, scattered into the tracked
// state. The propagation recomputes each dirty gate with GateDelayAt, which
// the full sweep matches bit for bit, reading cached fanin values — so
// bound results match a from-scratch evaluation of the same assignment
// (the eval property test pins this down).
//
// Bound accessors (BoundDelays, BoundCriticalDelay, BoundSlacks) read the
// tracked state without touching the device model; the full-evaluation APIs
// in eval.go keep working while bound because they use separate scratch.

// Bind attaches the engine to a for incremental evaluation and performs the
// initial full delay computation. The engine holds a reference: all
// subsequent edits to a must go through SetWidth or a fresh Bind,
// and bound accessors reflect a's current state. Bind replaces any prior
// binding.
func (e *Engine) Bind(a *design.Assignment) {
	n := e.C.N()
	e.bound = a
	if e.curTd == nil {
		e.curTd = make([]float64, n)
		e.curArr = make([]float64, n)
		e.inDirty = make([]bool, n)
		e.dirty = make([]int, 0, 64)
	}
	e.refreshAll()
}

// Unbind detaches the engine from its bound assignment.
func (e *Engine) Unbind() { e.bound = nil }

// refreshAll recomputes the whole tracked state from the bound assignment
// with one full sweep.
//
//cmosvet:hotpath
func (e *Engine) refreshAll() {
	e.sweep(e.bound)
	e.ws.scatter(e.curTd, e.ws.Delay)
	e.ws.scatter(e.curArr, e.ws.arr)
}

// SetWidth sets the bound assignment's width of gate id and incrementally
// re-evaluates: the gate itself, the fanin loads, and the dirtied fanout
// cone.
//
//cmosvet:hotpath
func (e *Engine) SetWidth(id int, w float64) {
	a := e.bound
	if a.W[id] == w {
		return
	}
	a.W[id] = w
	e.met.IncrementalEdits++
	e.push(id)
	for _, f := range e.cs.Fanins(int32(id)) {
		if e.cs.IsLogic[f] {
			e.push(int(f))
		}
	}
	e.propagate()
}

// BoundDelays returns the tracked per-gate delays (engine-owned; do not
// modify; valid until the next edit).
//
//cmosvet:hotpath
func (e *Engine) BoundDelays() []float64 { return e.curTd }

// BoundCriticalDelay returns the tracked critical delay — a max over primary
// outputs, no model calls.
//
//cmosvet:hotpath
func (e *Engine) BoundCriticalDelay() float64 {
	worst := 0.0
	for _, id := range e.C.POs {
		if e.curArr[id] > worst {
			worst = e.curArr[id]
		}
	}
	return worst
}

// BoundSlacks computes slacks against cycle budget T from the tracked delays
// and arrivals — backward graph propagation only, no device-model calls. The
// returned slice is engine scratch (valid until the next Engine call).
//
//cmosvet:hotpath
func (e *Engine) BoundSlacks(T float64) []float64 {
	return e.slacksFrom(e.curTd, e.curArr, T)
}

// push adds a gate to the dirty heap unless it is already queued.
//
//cmosvet:hotpath
func (e *Engine) push(id int) {
	if e.inDirty[id] {
		return
	}
	e.inDirty[id] = true
	e.dirty = append(e.dirty, id)
	// Sift up by topological rank.
	d, r := e.dirty, e.cs.Rank
	i := len(d) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r[d[p]] <= r[d[i]] {
			break
		}
		d[p], d[i] = d[i], d[p]
		i = p
	}
}

// pop removes and returns the dirty gate with the smallest topological rank.
//
//cmosvet:hotpath
func (e *Engine) pop() int {
	d, r := e.dirty, e.cs.Rank
	id := d[0]
	last := len(d) - 1
	d[0] = d[last]
	e.dirty = d[:last]
	d = e.dirty
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		s := i
		if l < last && r[d[l]] < r[d[s]] {
			s = l
		}
		if rt < last && r[d[rt]] < r[d[s]] {
			s = rt
		}
		if s == i {
			break
		}
		d[s], d[i] = d[i], d[s]
		i = s
	}
	e.inDirty[id] = false
	return id
}

// propagate drains the dirty heap in topological-rank order, re-evaluating
// each gate from its fanins' tracked values and pushing fanouts whenever the
// gate's delay or arrival changed. Rank ordering guarantees each gate is
// processed at most once per drain: pops are nondecreasing in rank and every
// push targets a strictly higher rank than the gate that caused it.
//
//cmosvet:hotpath
func (e *Engine) propagate() {
	a := e.bound
	cs := e.cs
	drained := int64(0)
	for len(e.dirty) > 0 {
		id := e.pop()
		e.met.DirtyGates++
		drained++
		fanins := cs.Fanins(int32(id))
		newTd := 0.0
		if cs.IsLogic[id] {
			maxIn := 0.0
			for _, f := range fanins {
				if e.curTd[f] > maxIn {
					maxIn = e.curTd[f]
				}
			}
			newTd = e.gateDelay(id, a, a.W[id], maxIn)
		}
		maxArr := 0.0
		for _, f := range fanins {
			if e.curArr[f] > maxArr {
				maxArr = e.curArr[f]
			}
		}
		newArr := maxArr + newTd
		if newTd == e.curTd[id] && newArr == e.curArr[id] {
			continue
		}
		e.curTd[id], e.curArr[id] = newTd, newArr
		for _, f := range cs.Fanouts(int32(id)) {
			e.push(int(f))
		}
	}
	if e.sink != nil && drained > 0 {
		e.sink.dirty.Observe(drained)
	}
}
