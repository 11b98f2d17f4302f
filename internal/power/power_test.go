package power

import (
	"math"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

const fc = 300e6 //cmosvet:unit Hz

// testVdd names the supply literal of the formula tests so the energy
// expressions below carry the volts the bare literal would drop.
const testVdd = 1.2 //cmosvet:unit V

// fixture: in1,in2 -> NAND g -> NOT h (PO).
func fixture(t *testing.T) (*circuit.Circuit, *Evaluator, device.Tech) {
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
	tech := device.Default350()
	act, err := activity.PropagateUniform(c, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wiring.New(wiring.Default350(), c.NumLogic())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(c, &tech, act, wire, fc)
	if err != nil {
		t.Fatal(err)
	}
	return c, ev, tech
}

func TestNewRejectsBadInputs(t *testing.T) {
	c, ev, tech := fixture(t)
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if _, err := New(seq, &tech, ev.Act, ev.Wire, fc); err == nil {
		t.Error("sequential circuit accepted")
	}
	if _, err := New(c, &tech, ev.Act, ev.Wire, 0); err == nil {
		t.Error("zero frequency accepted")
	}
	short := &activity.Profile{Prob: []float64{0.5}, Density: []float64{0.1}}
	if _, err := New(c, &tech, short, ev.Wire, fc); err == nil {
		t.Error("mismatched activity profile accepted")
	}
	bad := tech
	bad.Alpha = 0
	if _, err := New(c, &bad, ev.Act, ev.Wire, fc); err == nil {
		t.Error("invalid tech accepted")
	}
}

func TestInputGatesConsumeNothing(t *testing.T) {
	c, ev, _ := fixture(t)
	a := design.Uniform(c.N(), 1.0, 0.3, 2)
	for _, id := range c.PIs {
		if b := ev.GateEnergy(id, a); b.Total() != 0 {
			t.Errorf("input %d energy %+v", id, b)
		}
	}
}

func TestStaticEnergyFormula(t *testing.T) {
	c, ev, tech := fixture(t)
	a := design.Uniform(c.N(), 1.2, 0.25, 3)
	g := c.GateByName("g")
	got := ev.GateEnergy(g.ID, a).Static
	want := testVdd * 3 * tech.IoffUnit(0.25) / fc
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("static = %v, want %v", got, want)
	}
}

func TestDynamicEnergyFormula(t *testing.T) {
	c, ev, tech := fixture(t)
	a := design.Uniform(c.N(), 1.2, 0.25, 3)
	g := c.GateByName("g") // NAND, 2 fanins, drives h only
	h := c.GateByName("h")
	cb := ev.Wire.BranchCap()
	internal := 3 * (tech.CPD + 1*tech.Cmi) // fii−1 = 1
	load := a.W[h.ID]*tech.Ct + cb
	want := 0.5 * ev.Act.Density[g.ID] * testVdd * testVdd * (internal + load)
	got := ev.GateEnergy(g.ID, a).Dynamic
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("dynamic = %v, want %v", got, want)
	}
}

func TestPOGetsExternalLoad(t *testing.T) {
	c, ev, tech := fixture(t)
	a := design.Uniform(c.N(), 1.2, 0.25, 2)
	h := c.GateByName("h") // PO, no internal fanout
	cb := ev.Wire.BranchCap()
	if got, want := ev.OutputLoad(h.ID, a), tech.COut+cb; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("PO load = %v, want %v", got, want)
	}
	g := c.GateByName("g") // drives h only, no module load
	if got, want := ev.OutputLoad(g.ID, a), a.W[h.ID]*tech.Ct+cb; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("non-PO load = %v, want %v", got, want)
	}
}

func TestTotalSumsGates(t *testing.T) {
	c, ev, _ := fixture(t)
	a := design.Uniform(c.N(), 1.0, 0.2, 2)
	var want Breakdown
	for i := range c.Gates {
		want.Add(ev.GateEnergy(i, a))
	}
	got := ev.Total(a)
	if got != want {
		t.Errorf("Total = %+v, want %+v", got, want)
	}
	if got.Total() != got.Static+got.Dynamic {
		t.Error("Breakdown.Total broken")
	}
}

func TestStaticMonotoneInVts(t *testing.T) {
	c, ev, _ := fixture(t)
	lo := design.Uniform(c.N(), 1.0, 0.15, 2)
	hi := design.Uniform(c.N(), 1.0, 0.45, 2)
	if ev.Total(lo).Static <= ev.Total(hi).Static {
		t.Error("lower threshold must leak more")
	}
}

func TestDynamicQuadraticInVdd(t *testing.T) {
	c, ev, _ := fixture(t)
	a1 := design.Uniform(c.N(), 1.0, 0.3, 2)
	a2 := design.Uniform(c.N(), 2.0, 0.3, 2)
	r := ev.Total(a2).Dynamic / ev.Total(a1).Dynamic
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("Vdd doubling scaled dynamic by %v, want 4", r)
	}
}

func TestDynamicProportionalToActivity(t *testing.T) {
	c, _, tech := fixture(t)
	wire, _ := wiring.New(wiring.Default350(), c.NumLogic())
	mk := func(d float64) Breakdown {
		act, err := activity.PropagateUniform(c, 0.5, d)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := New(c, &tech, act, wire, fc)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Total(design.Uniform(c.N(), 1.0, 0.3, 2))
	}
	lo, hi := mk(0.1), mk(0.4)
	if r := hi.Dynamic / lo.Dynamic; math.Abs(r-4) > 1e-9 {
		t.Errorf("activity x4 scaled dynamic by %v", r)
	}
	if lo.Static != hi.Static {
		t.Error("static energy must not depend on activity")
	}
}

func TestStaticScalesWithWidth(t *testing.T) {
	c, ev, _ := fixture(t)
	a1 := design.Uniform(c.N(), 1.0, 0.3, 2)
	a2 := design.Uniform(c.N(), 1.0, 0.3, 6)
	if r := ev.Total(a2).Static / ev.Total(a1).Static; math.Abs(r-3) > 1e-9 {
		t.Errorf("width x3 scaled static by %v", r)
	}
}

func TestPowerConversion(t *testing.T) {
	c, ev, _ := fixture(t)
	b := ev.Total(design.Uniform(c.N(), 1.0, 0.3, 2))
	if got, want := ev.Power(b), b.Total()*fc; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Power = %v, want %v", got, want)
	}
}

func TestRealisticMagnitudes(t *testing.T) {
	// A ~119-gate module at 3.3 V / 0.7 V, a = 0.5: total energy per cycle
	// should be picojoules, static orders of magnitude below dynamic.
	c, err := netgen.Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	tech := device.Default350()
	act, err := activity.PropagateUniform(c, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wiring.New(wiring.Default350(), c.NumLogic())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(c, &tech, act, wire, fc)
	if err != nil {
		t.Fatal(err)
	}
	b := ev.Total(design.Uniform(c.N(), 3.3, 0.7, 2))
	if b.Dynamic < 1e-13 || b.Dynamic > 1e-9 {
		t.Errorf("dynamic %v J/cycle implausible", b.Dynamic)
	}
	if b.Static > b.Dynamic/100 {
		t.Errorf("static %v should be far below dynamic %v at Vt=0.7", b.Static, b.Dynamic)
	}
}
