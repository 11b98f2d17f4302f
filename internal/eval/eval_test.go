package eval

import (
	"math"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/delay"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/power"
	"cmosopt/internal/wiring"
)

// Base and step (V) of the cache-overflow threshold sweep.
const (
	vtsBase = 0.2
	vtsStep = 1e-7
)

// Base and step (s) of the width-pass targets.
const (
	targetBase = 0.2e-9
	targetStep = 0.01e-9
)

// buildCase returns a synthetic circuit with its engine plus the raw model
// evaluators the engine must agree with.
func buildCase(t testing.TB, seed int64) (*circuit.Circuit, *Engine, *delay.Evaluator, *power.Evaluator) {
	t.Helper()
	c, err := netgen.Generate(netgen.Config{
		Name: "evaltest", Gates: 60, Depth: 6, PIs: 8, POs: 6, DFFs: 4,
	}, seed)
	if err != nil {
		t.Fatalf("netgen: %v", err)
	}
	tech := device.Default350()
	act, err := activity.PropagateUniform(c, 0.5, 0.25)
	if err != nil {
		t.Fatalf("activity: %v", err)
	}
	wire, err := wiring.New(wiring.Default350(), max(c.NumLogic(), 1))
	if err != nil {
		t.Fatalf("wiring: %v", err)
	}
	eng, err := New(c, &tech, act, wire, 100e6)
	if err != nil {
		t.Fatalf("eval.New: %v", err)
	}
	dm, err := delay.New(c, &tech, wire)
	if err != nil {
		t.Fatalf("delay.New: %v", err)
	}
	pm, err := power.New(c, &tech, act, wire, 100e6)
	if err != nil {
		t.Fatalf("power.New: %v", err)
	}
	return c, eng, dm, pm
}

func TestEngineMatchesModels(t *testing.T) {
	c, eng, dm, pm := buildCase(t, 1)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)

	wantTd := dm.Delays(a)
	gotTd := eng.Delays(a)
	for i := range wantTd {
		if gotTd[i] != wantTd[i] {
			t.Fatalf("gate %d delay: engine %v, model %v", i, gotTd[i], wantTd[i])
		}
	}
	wantArr, _ := dm.Arrivals(a)
	eng.Bind(a)
	for i := range wantArr {
		if got := eng.curArr[i]; got != wantArr[i] {
			t.Fatalf("gate %d arrival: engine %v, model %v", i, got, wantArr[i])
		}
	}
	eng.Unbind()
	if got, want := eng.CriticalDelay(a), dm.CriticalDelay(a); got != want {
		t.Fatalf("critical delay: engine %v, model %v", got, want)
	}
	if got, want := eng.Energy(a), pm.Total(a); got != want {
		t.Fatalf("energy: engine %+v, model %+v", got, want)
	}
}

func TestProbeWidthMatchesMutateRestore(t *testing.T) {
	c, eng, dm, _ := buildCase(t, 2)
	a := design.Uniform(c.N(), 1.2, 0.3, 3)
	td := dm.Delays(a)
	for id := range c.Gates {
		if !c.Gates[id].IsLogic() {
			continue
		}
		maxIn := 0.0
		for _, f := range c.Gate(id).Fanin {
			if td[f] > maxIn {
				maxIn = td[f]
			}
		}
		for _, w := range []float64{1, 2.5, 7, 40} {
			old := a.W[id]
			a.W[id] = w
			want := dm.GateDelayWith(id, a, maxIn)
			a.W[id] = old
			if got := eng.ProbeWidth(id, a, w, maxIn); got != want {
				t.Fatalf("gate %d probe w=%v: got %v, want %v", id, w, got, want)
			}
		}
	}
}

// A width pass's settled delays are what ProbeWidth answers at the widths
// it chose, bit for bit, given the fanout widths before the pass and the
// fanin delays the pass produced; and the pass counts what a per-gate probe
// loop would: one coefficient lookup and one settled gate-delay call per
// gate, and one gate-delay call per width probe. A clone runs the same pass
// on the same shared table with its own scratch and counters.
func TestWidthProbeMatchesProbeWidth(t *testing.T) {
	c, eng, _, _ := buildCase(t, 4)
	a := design.Uniform(c.N(), 1.2, 0.3, 3)
	for i := range a.W {
		a.W[i] = 1 + float64(i%7)
	}
	ref := eng.Clone()
	for _, e := range []*Engine{eng, eng.Clone()} {
		s := e.WidthScratch()
		for i := range s.Target {
			s.Target[i] = targetBase + targetStep*float64(i%11)
		}
		b := a.Clone()
		m0 := *e.Metrics()
		e.SizeWidths(s, b, 1, 100, 12, 1)
		m := *e.Metrics()
		pos := make(map[int32]int, len(s.Target))
		for i := range s.Target {
			pos[s.ID(i)] = i
		}
		moved := 0
		for i := range s.Target {
			id := s.ID(i)
			maxIn := 0.0
			for _, f := range c.Gate(int(id)).Fanin {
				if p, ok := pos[f]; ok {
					maxIn = max(maxIn, s.Delay[p])
				}
			}
			if got, want := s.Delay[i], ref.ProbeWidth(int(id), a, b.W[id], maxIn); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gate %d: settled delay %v at width %v, ProbeWidth %v", id, got, b.W[id], want)
			}
			if b.W[id] != a.W[id] {
				moved++
			}
		}
		if moved == 0 {
			t.Fatal("the pass moved no width")
		}
		n := int64(len(s.Target))
		probes := m.WidthProbes - m0.WidthProbes
		if got := m.GateDelayCalls - m0.GateDelayCalls; probes < 2*n || got != probes+n {
			t.Errorf("%d width probes and %d gate-delay calls for %d gates, want at least %d probes and one call more per gate", probes, got, n, 2*n)
		}
		if got := m.CoeffHits + m.CoeffMisses - m0.CoeffHits - m0.CoeffMisses; got != n {
			t.Errorf("%d coefficient lookups for %d gates, want one per gate", got, n)
		}
	}
}

// Once its table, scratch and cache entry exist, a width solve allocates
// nothing, on an exact bisection grid or on an inexact one, on the engine
// and on a clone: on a random circuit, and on a hub gate that drives nine
// fanouts and a primary output. Nor does any other hot entry point: the
// width probes (ProbeWidth, GateDelayOverride), the sweeps that run on the
// same table (WidthDelays, CriticalDelay with Energy, Delays), Bind with the
// bound slacks and delays, and an incremental edit (Bind, then SetWidth with
// BoundCriticalDelay, and a re-Bind).
func TestWidthProbeZeroAlloc(t *testing.T) {
	_, eng, _, _ := buildCase(t, 5)
	b := circuit.NewBuilder("hub")
	in := b.Input("a")
	hub := b.Gate(circuit.Not, "hub", in)
	for i := 0; i < 9; i++ {
		b.Output(b.Gate(circuit.Not, "o"+string(rune('0'+i)), hub))
	}
	b.Output(hub) // the PO load goes after the nine fanouts
	hc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hubAct, err := activity.PropagateUniform(hc, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	hubEng, err := New(hc, eng.Tech, hubAct, eng.Wire, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []*Engine{eng, hubEng} {
		for _, e := range []*Engine{base, base.Clone()} {
			s := e.WidthScratch()
			for i := range s.Target {
				s.Target[i] = targetBase
			}
			a := design.Uniform(base.C.N(), 1.2, 0.3, 3)
			bound := a.Clone()
			id := int(s.ID(0))
			for _, sw := range []struct {
				name string
				run  func()
			}{
				{"a width solve", func() { e.SizeWidths(s, a, 1, 100, 12, 4) }},
				// [1.3, 37.7] has no exact bisection grid, so every gate
				// whose search bisects takes the cold path.
				{"a width solve on an inexact grid", func() { e.SizeWidths(s, a, 1.3, 37.7, 12, 4) }},
				{"ProbeWidth", func() { e.ProbeWidth(id, a, 5, 1e-10) }},
				{"GateDelayOverride", func() { e.GateDelayOverride(id, a, id, 5, 1e-10) }},
				{"Bind with BoundSlacks and BoundDelays", func() {
					e.Bind(bound)
					e.BoundSlacks(1e-8)
					e.BoundDelays()
				}},
				{"WidthDelays", func() { e.WidthDelays(s, a) }},
				{"CriticalDelay with Energy", func() { e.CriticalDelay(a); e.Energy(a) }},
				{"Delays", func() { e.Delays(a) }},
				{"an incremental edit", func() {
					e.Bind(bound)
					e.SetWidth(id, 7-bound.W[id]) // 3 and 4 in turn
					e.BoundCriticalDelay()
					e.Bind(bound)
				}},
			} {
				sw.run() // prices the voltage pair and sizes the sweep scratch
				if allocs := testing.AllocsPerRun(20, sw.run); allocs != 0 {
					t.Errorf("%s: %s allocated %v times per run, want 0", base.C.Name, sw.name, allocs)
				}
			}
		}
	}

	// The hub's settled delay after one pass is GateDelayAt's at the width
	// the pass chose, with its nine fanouts and the PO at their widths
	// before the pass.
	dm, err := delay.New(hc, eng.Tech, eng.Wire)
	if err != nil {
		t.Fatal(err)
	}
	s := hubEng.WidthScratch()
	for i := range s.Target {
		s.Target[i] = targetBase
	}
	pre := design.Uniform(hc.N(), 1.5, 0.3, 2)
	a := pre.Clone()
	hubEng.SizeWidths(s, a, 1, 100, 12, 1)
	id := hc.GateByName("hub").ID
	checked := false
	for i := range s.Target {
		if s.ID(i) != int32(id) {
			continue
		}
		checked = true
		want := dm.GateDelayAt(id, pre, a.W[id], -1, 0, 0, dm.CoeffsAt(1.5, 0.3))
		if got := s.Delay[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("hub gate at width %v: settled delay %v, GateDelayAt %v", a.W[id], got, want)
		}
	}
	if !checked {
		t.Error("the hub gate is not in the width table")
	}
}

func TestGateDelayOverrideMatchesMutateRestore(t *testing.T) {
	c, eng, dm, _ := buildCase(t, 3)
	a := design.Uniform(c.N(), 1.0, 0.25, 5)
	td := dm.Delays(a)
	maxIn := func(id int) float64 {
		m := 0.0
		for _, f := range c.Gate(id).Fanin {
			if td[f] > m {
				m = td[f]
			}
		}
		return m
	}
	for id := range c.Gates {
		g := c.Gate(id)
		if !g.IsLogic() {
			continue
		}
		// Override the gate's own width, and each fanout's width as a load.
		targets := []int{id}
		for _, f := range eng.cs.Fanouts(int32(id)) {
			targets = append(targets, int(f))
		}
		for _, ov := range targets {
			wOv := a.W[ov] * 1.7
			old := a.W[ov]
			a.W[ov] = wOv
			want := dm.GateDelayWith(id, a, maxIn(id))
			a.W[ov] = old
			if got := eng.GateDelayOverride(id, a, ov, wOv, maxIn(id)); got != want {
				t.Fatalf("gate %d override ov=%d: got %v, want %v", id, ov, got, want)
			}
		}
	}
}

func TestCoeffCache(t *testing.T) {
	c, eng, _, _ := buildCase(t, 4)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	*eng.Metrics() = Metrics{}
	eng.CriticalDelay(a)
	m := eng.Metrics()
	if m.CoeffMisses != 1 {
		t.Errorf("one voltage pair should miss once, got %d misses", m.CoeffMisses)
	}
	if m.CoeffHits != int64(c.NumLogic())-1 {
		t.Errorf("expected %d hits, got %d", c.NumLogic()-1, m.CoeffHits)
	}
	if m.GateDelayCalls != int64(c.NumLogic()) {
		t.Errorf("expected %d gate-delay calls, got %d", c.NumLogic(), m.GateDelayCalls)
	}
	if got := eng.FullEvalEquivalents(); math.Abs(got-1) > 1e-12 {
		t.Errorf("one sweep should be 1 full-eval equivalent, got %v", got)
	}
	// The cache survives a voltage change and returning to a seen pair.
	*eng.Metrics() = Metrics{}
	a.Vdd = 2.0
	eng.CriticalDelay(a)
	a.Vdd = 1.5
	eng.CriticalDelay(a)
	m = eng.Metrics()
	if m.CoeffMisses != 1 {
		t.Errorf("revisiting a cached pair should only miss the new one, got %d misses", m.CoeffMisses)
	}
}

func TestCoeffCacheOverflowClears(t *testing.T) {
	c, eng, _, _ := buildCase(t, 5)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	// Drive far past the cap with distinct voltage pairs (the Monte-Carlo
	// yield pattern); the cache must stay bounded and keep answering. The
	// named base and step keep the swept thresholds in volts.
	for i := 0; i < maxCoeffEntries+100; i++ {
		vts := vtsBase + vtsStep*float64(i)
		a.SetVts(vts)
		eng.CriticalDelay(a)
	}
	if got := len(eng.cache); got > maxCoeffEntries {
		t.Fatalf("coefficient cache grew to %d entries, cap is %d", got, maxCoeffEntries)
	}
}
