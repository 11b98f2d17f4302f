package eval

// Metrics counts the evaluation work an engine has performed. Every delay
// number produced by the engine funnels through one gate-delay model call, so
// GateDelayCalls is a faithful effort meter across full sweeps, width probes
// and incremental propagation alike; FullEvalEquivalents converts it into the
// O(M³) full-circuit-evaluation units the paper counts in. A width probe is
// one width a search tests: the width kernel (SizeWidths) answers it from
// Eq. A3's closed form c0 + c1/w or from the term-by-term sum, and counts
// one probe and one gate-delay call either way, since the paper's currency
// counts search steps and both forms are Eq. A3.
type Metrics struct {
	GateDelayCalls   int64 // single-gate delay-model evaluations (all sources)
	GateEnergyCalls  int64 // single-gate energy-model evaluations
	FullDelaySweeps  int64 // whole-circuit delay computations (Delays/CriticalDelay/…)
	FullEnergySweeps int64 // whole-circuit energy computations (Energy)
	WidthProbes      int64 // widths tested (ProbeWidth, GateDelayOverride, each width a SizeWidths search tests)
	IncrementalEdits int64 // bound-assignment width edits (SetWidth)
	DirtyGates       int64 // gates re-evaluated by incremental propagation
	CoeffHits        int64 // device-coefficient cache hits
	CoeffMisses      int64 // device-coefficient cache misses (transcendental work)
}

// Add accumulates another metrics snapshot.
func (m *Metrics) Add(o Metrics) {
	m.GateDelayCalls += o.GateDelayCalls
	m.GateEnergyCalls += o.GateEnergyCalls
	m.FullDelaySweeps += o.FullDelaySweeps
	m.FullEnergySweeps += o.FullEnergySweeps
	m.WidthProbes += o.WidthProbes
	m.IncrementalEdits += o.IncrementalEdits
	m.DirtyGates += o.DirtyGates
	m.CoeffHits += o.CoeffHits
	m.CoeffMisses += o.CoeffMisses
}
