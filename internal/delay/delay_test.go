package delay

import (
	"math"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

func fixture(t *testing.T) (*circuit.Circuit, *Evaluator) {
	t.Helper()
	b := circuit.NewBuilder("fx")
	i1, i2 := b.Input("a"), b.Input("b")
	g := b.Gate(circuit.Nand, "g", i1, i2)
	h := b.Gate(circuit.Not, "h", g)
	b.Output(h)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, evalFor(t, c)
}

func evalFor(t *testing.T, c *circuit.Circuit) *Evaluator {
	t.Helper()
	tech := device.Default350()
	wire, err := wiring.New(wiring.Default350(), max(c.NumLogic(), 1))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(c, &tech, wire)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestNewRejects(t *testing.T) {
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	tech := device.Default350()
	wire, _ := wiring.New(wiring.Default350(), 10)
	if _, err := New(seq, &tech, wire); err == nil {
		t.Error("sequential circuit accepted")
	}
	bad := tech
	bad.KSat = -1
	c, _ := circuit.ParseBenchString("ok", "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n")
	if _, err := New(c, &bad, wire); err == nil {
		t.Error("invalid tech accepted")
	}
}

func TestInputsZeroDelay(t *testing.T) {
	c, ev := fixture(t)
	td := ev.Delays(design.Uniform(c.N(), 3.3, 0.7, 2))
	for _, id := range c.PIs {
		if td[id] != 0 {
			t.Errorf("input %d delay %v", id, td[id])
		}
	}
}

func TestRealisticInverterDelay(t *testing.T) {
	// Nominal 0.35 µm operating point: gate delays tens to hundreds of ps.
	c, ev := fixture(t)
	td := ev.Delays(design.Uniform(c.N(), 3.3, 0.7, 2))
	h := c.GateByName("h")
	if td[h.ID] < 1e-12 || td[h.ID] > 1e-9 {
		t.Errorf("inverter delay %v s implausible", td[h.ID])
	}
}

func TestDelayDecreasesWithWidth(t *testing.T) {
	c, ev := fixture(t)
	g := c.GateByName("g")
	prev := math.Inf(1)
	for _, w := range []float64{1, 2, 4, 8, 16, 32} {
		a := design.Uniform(c.N(), 1.0, 0.3, w)
		td := ev.GateDelayWith(g.ID, a, 0)
		if td >= prev {
			t.Fatalf("delay not decreasing at w=%v: %v >= %v", w, td, prev)
		}
		prev = td
	}
}

func TestDelayMonotoneInVddAndVts(t *testing.T) {
	c, ev := fixture(t)
	g := c.GateByName("g")
	at := func(vdd, vts float64) float64 {
		return ev.GateDelayWith(g.ID, design.Uniform(c.N(), vdd, vts, 2), 0)
	}
	if !(at(1.0, 0.3) < at(0.7, 0.3)) {
		t.Error("higher Vdd should be faster")
	}
	if !(at(1.0, 0.2) < at(1.0, 0.4)) {
		t.Error("lower Vts should be faster")
	}
}

func TestSubthresholdOperationFiniteButSlow(t *testing.T) {
	c, ev := fixture(t)
	g := c.GateByName("g")
	super := ev.GateDelayWith(g.ID, design.Uniform(c.N(), 1.0, 0.3, 2), 0)
	sub := ev.GateDelayWith(g.ID, design.Uniform(c.N(), 0.25, 0.45, 2), 0)
	if math.IsInf(sub, 1) {
		t.Fatal("subthreshold point should still switch")
	}
	if sub < 100*super {
		t.Errorf("subthreshold delay %v should be orders above superthreshold %v", sub, super)
	}
}

func TestInfeasiblePointReturnsInf(t *testing.T) {
	// Drive so low that the off current of the fanin stacks wins: Vdd of a
	// few tens of mV with multi-input gates (below the tech's legal range, so
	// call the model directly).
	b := circuit.NewBuilder("wide")
	ins := make([]int, 4)
	for i := range ins {
		ins[i] = b.Input("i" + string(rune('a'+i)))
	}
	g := b.Gate(circuit.Nand, "g", ins...)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 0.02, 0.4, 2)
	if td := ev.GateDelayWith(c.GateByName("g").ID, a, 0); !math.IsInf(td, 1) {
		t.Errorf("expected +Inf at unswitchable point, got %v", td)
	}
}

func TestSlopeCoeff(t *testing.T) {
	_, ev := fixture(t)
	// Higher Vts/Vdd ratio -> larger coefficient.
	if !(ev.SlopeCoeff(1.0, 0.2) < ev.SlopeCoeff(1.0, 0.6)) {
		t.Error("slope coefficient should grow with Vts")
	}
	// Clamp: Vts >> Vdd could push above 1; never exceeds it.
	if k := ev.SlopeCoeff(0.1, 3.0); k > 1 {
		t.Errorf("slope coeff %v > 1", k)
	}
	if k := ev.SlopeCoeff(1.0, 0.0); k < 0 {
		t.Errorf("slope coeff %v < 0", k)
	}
	// Exact value check at a nominal point.
	tech := device.Default350()
	want := 0.5 - (1-0.7/3.3)/(1+tech.Alpha)
	if got := ev.SlopeCoeff(3.3, 0.7); math.Abs(got-want) > 1e-12 {
		t.Errorf("SlopeCoeff(3.3,0.7) = %v, want %v", got, want)
	}
}

func TestSlopePropagation(t *testing.T) {
	// A gate fed by a slow driver must be slower than one fed by inputs.
	c, ev := fixture(t)
	h := c.GateByName("h")
	a := design.Uniform(c.N(), 1.0, 0.3, 2)
	fast := ev.GateDelayWith(h.ID, a, 0)
	slow := ev.GateDelayWith(h.ID, a, 1e-9)
	if slow <= fast {
		t.Errorf("fanin delay ignored: %v <= %v", slow, fast)
	}
}

func TestArrivalsChainSum(t *testing.T) {
	// Inverter chain: critical delay equals the sum of gate delays.
	b := circuit.NewBuilder("chain")
	prev := b.Input("in")
	var gates []int
	for i := 0; i < 5; i++ {
		prev = b.Gate(circuit.Not, "g"+string(rune('0'+i)), prev)
		gates = append(gates, prev)
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.3, 2)
	arr, td := ev.Arrivals(a)
	sum := 0.0
	for _, id := range gates {
		sum += td[id]
	}
	last := gates[len(gates)-1]
	if math.Abs(arr[last]-sum)/sum > 1e-12 {
		t.Errorf("arrival %v != delay sum %v", arr[last], sum)
	}
	if cd := ev.CriticalDelay(a); math.Abs(cd-sum)/sum > 1e-12 {
		t.Errorf("critical delay %v != %v", cd, sum)
	}
}

func TestArrivalsMonotoneAlongEdges(t *testing.T) {
	c, err := netgen.Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.25, 2)
	arr, _ := ev.Arrivals(a)
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if arr[f] > arr[i] {
				t.Fatalf("arrival decreases along edge %d->%d", f, i)
			}
		}
	}
}

func TestCriticalPathConsistent(t *testing.T) {
	c, err := netgen.Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.25, 2)
	path, cd := ev.CriticalPath(a)
	if len(path) < 2 {
		t.Fatalf("degenerate path %v", path)
	}
	if got := ev.CriticalDelay(a); math.Abs(got-cd) > 1e-18 {
		t.Errorf("path delay %v != critical delay %v", cd, got)
	}
	// Path must follow fanin edges.
	for i := 1; i < len(path); i++ {
		ok := false
		for _, f := range c.Gates[path[i]].Fanin {
			if int(f) == path[i-1] {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("path step %d->%d is not an edge", path[i-1], path[i])
		}
	}
	// Path starts at an input and ends at a PO.
	if c.Gates[path[0]].Type != circuit.Input {
		t.Error("path does not start at an input")
	}
	last := path[len(path)-1]
	found := false
	for _, po := range c.POs {
		if po == last {
			found = true
		}
	}
	if !found {
		t.Error("path does not end at a PO")
	}
}

func TestSlacks(t *testing.T) {
	c, err := netgen.Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.25, 2)
	cd := ev.CriticalDelay(a)
	T := cd * 1.2
	slack := ev.Slacks(a, T)
	minSlack := math.Inf(1)
	for i := range c.Gates {
		if !c.Gates[i].IsLogic() {
			continue
		}
		if slack[i] < minSlack {
			minSlack = slack[i]
		}
	}
	// Minimum slack equals T − critical delay.
	if math.Abs(minSlack-(T-cd)) > 1e-18 {
		t.Errorf("min slack %v, want %v", minSlack, T-cd)
	}
	// With T below the critical delay, some slack goes negative.
	slack = ev.Slacks(a, cd*0.8)
	neg := false
	for i := range c.Gates {
		if c.Gates[i].IsLogic() && slack[i] < 0 {
			neg = true
		}
	}
	if !neg {
		t.Error("expected negative slack below the critical delay")
	}
}

func TestSlacksChain(t *testing.T) {
	// On a pure chain every gate shares the single path: identical slacks.
	b := circuit.NewBuilder("chain")
	prev := b.Input("in")
	ids := []int{}
	for i := 0; i < 4; i++ {
		prev = b.Gate(circuit.Not, "g"+string(rune('0'+i)), prev)
		ids = append(ids, prev)
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 1.0, 0.3, 2)
	T := ev.CriticalDelay(a) * 1.5
	slack := ev.Slacks(a, T)
	for _, id := range ids[1:] {
		if math.Abs(slack[id]-slack[ids[0]]) > 1e-18 {
			t.Errorf("chain slacks differ: %v vs %v", slack[id], slack[ids[0]])
		}
	}
}

func TestWiderFanoutLoadsDriver(t *testing.T) {
	// Widening a fanout gate must slow its driver.
	c, ev := fixture(t)
	g := c.GateByName("g")
	h := c.GateByName("h")
	a1 := design.Uniform(c.N(), 1.0, 0.3, 2)
	a2 := a1.Clone()
	a2.W[h.ID] = 50
	if ev.GateDelayWith(g.ID, a1, 0) >= ev.GateDelayWith(g.ID, a2, 0) {
		t.Error("driver delay should grow with fanout width")
	}
}
