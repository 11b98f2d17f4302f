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

// Base and step of the cache-overflow threshold sweep, named so the swept
// operating points stay in volts.
const (
	vtsBase = 0.2  //cmosvet:unit V
	vtsStep = 1e-7 //cmosvet:unit V
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
	wire.SampleNets(c.N(), seed)
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
	gotArr, _ := eng.Arrivals(a)
	for i := range wantArr {
		if gotArr[i] != wantArr[i] {
			t.Fatalf("gate %d arrival: engine %v, model %v", i, gotArr[i], wantArr[i])
		}
	}
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

// The prepared width probe answers what ProbeWidth and GateDelayWith
// answer, bit for bit, and counts the same work: At is a width probe,
// Settled a plain gate-delay call. A preparation looks the device
// coefficients up once, and a clone carries its own probe.
func TestWidthProbeMatchesProbeWidth(t *testing.T) {
	c, eng, dm, _ := buildCase(t, 4)
	a := design.Uniform(c.N(), 1.2, 0.3, 3)
	for i := range a.W {
		a.W[i] = 1 + float64(i%7)
	}
	td := dm.Delays(a)
	ref := eng.Clone()
	for _, e := range []*Engine{eng, eng.Clone()} {
		for id := range c.Gates {
			if !c.Gates[id].IsLogic() {
				continue
			}
			maxIn := 0.0
			for _, f := range c.Gate(id).Fanin {
				maxIn = max(maxIn, td[f])
			}
			m0 := *e.Metrics()
			pr := e.PrepareWidth(id, a, maxIn)
			ws := []float64{1, 2.5, 7, 40}
			for _, w := range ws {
				if got, want := pr.At(w), ref.ProbeWidth(id, a, w, maxIn); got != want {
					t.Fatalf("gate %d At(%v) = %v, ProbeWidth %v", id, w, got, want)
				}
			}
			if got, want := pr.Settled(a.W[id]), ref.GateDelayWith(id, a, maxIn); got != want {
				t.Fatalf("gate %d Settled = %v, GateDelayWith %v", id, got, want)
			}
			m := *e.Metrics()
			if got := m.WidthProbes - m0.WidthProbes; got != int64(len(ws)) {
				t.Errorf("gate %d: %d width probes counted, want %d", id, got, len(ws))
			}
			if got := m.GateDelayCalls - m0.GateDelayCalls; got != int64(len(ws)+1) {
				t.Errorf("gate %d: %d gate-delay calls counted, want %d", id, got, len(ws)+1)
			}
			if got := m.CoeffHits + m.CoeffMisses - m0.CoeffHits - m0.CoeffMisses; got != 1 {
				t.Errorf("gate %d: %d coefficient lookups, want 1", id, got)
			}
		}
	}
}

// Preparing and probing allocates nothing, on the engine and on a clone,
// for the gate with the widest fanout.
func TestWidthProbeZeroAlloc(t *testing.T) {
	c, eng, _, _ := buildCase(t, 5)
	a := design.Uniform(c.N(), 1.2, 0.3, 3)
	cs, err := c.CSR()
	if err != nil {
		t.Fatal(err)
	}
	hub := 0
	for id := range c.Gates {
		if cs.IsLogic[id] && cs.NumFanout(int32(id)) > cs.NumFanout(int32(hub)) {
			hub = id
		}
	}
	for _, e := range []*Engine{eng, eng.Clone()} {
		allocs := testing.AllocsPerRun(20, func() {
			pr := e.PrepareWidth(hub, a, 1e-10)
			_ = pr.At(2)
			_ = pr.Settled(2)
		})
		if allocs != 0 {
			t.Errorf("PrepareWidth + At + Settled on gate %d (fanout %d): %v allocs per run, want 0",
				hub, cs.NumFanout(int32(hub)), allocs)
		}
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
	eng.Metrics().Reset()
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
	eng.Metrics().Reset()
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

func TestDelayOnlyEnginePanicsOnEnergy(t *testing.T) {
	c, full, dm, _ := buildCase(t, 6)
	tech := device.Default350()
	eng, err := NewDelayOnly(c, &tech, full.Wire)
	if err != nil {
		t.Fatal(err)
	}
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	if got, want := eng.CriticalDelay(a), dm.CriticalDelay(a); got != want {
		t.Fatalf("delay-only critical delay: got %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Energy on a delay-only engine should panic")
		}
	}()
	eng.Energy(a)
}
