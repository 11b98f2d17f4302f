package eval

import (
	"fmt"
	"math"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// The engine's one full sweep — behind Delays, CriticalDelay and Bind's
// refresh, which also scatters the arrivals — re-times the circuit over the
// width table, level by level in solve order; the reference delay.Evaluator
// keeps the flat topological walk over the Gate slices. The two must agree
// bit for bit (per-gate delay depends only on fanin values, never on sweep
// order) across the whole benchmark suite, randomized networks and a gate
// with 70 fanins (a cold slot of the table), with mixed widths, at uniform
// voltages, with two thresholds and with per-gate supplies, at points
// including one where multi-fanin gates stall.

// newEngine builds a full engine for c at the default technology and
// wiring, with uniform input activity.
func newEngine(t testing.TB, c *circuit.Circuit) *Engine {
	t.Helper()
	tech := device.Default350()
	act, err := activity.PropagateUniform(c, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wiring.New(wiring.Default350(), max(c.NumLogic(), 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(c, &tech, act, wire, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func levelizedCase(t *testing.T, name string, seed int64) *Engine {
	t.Helper()
	cc, err := netgen.LoadNamed(name)
	if err != nil {
		cc, err = netgen.Generate(netgen.Config{
			Name: name, Gates: 300 + int(seed)*53, Depth: 8 + int(seed)%5,
			PIs: 6, POs: 5, DFFs: 3,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cc.IsSequential() {
		cc, err = cc.Combinational()
		if err != nil {
			t.Fatal(err)
		}
	}
	return newEngine(t, cc)
}

// sweepVariants are the voltage assignments the sweep is checked on:
// uniform, two thresholds and per-gate supplies.
var sweepVariants = []struct {
	name string
	make func(n int, vdd, vts, w float64) *design.Assignment
}{
	{"uniform", func(n int, vdd, vts, w float64) *design.Assignment { return design.Uniform(n, vdd, vts, w) }},
	{"two-vt", func(n int, vdd, vts, w float64) *design.Assignment {
		a := design.Uniform(n, vdd, vts, w)
		for i := 0; i < n; i += 2 {
			a.Vts[i] = vts + 0.08
		}
		return a
	}},
	{"vdd-per-gate", func(n int, vdd, vts, w float64) *design.Assignment {
		a := design.Uniform(n, vdd, vts, w)
		a.VddPer = make([]float64, n)
		for i := range a.VddPer {
			a.VddPer[i] = vdd * (1 + 0.25*float64(i%3))
		}
		return a
	}},
}

// checkLevelizedAgreesWithFlatWalk compares every full-sweep API of eng
// with the reference evaluator, bit for bit, and returns how many delays
// it compared and how many of them were +Inf.
func checkLevelizedAgreesWithFlatWalk(t *testing.T, eng *Engine, label string) (compared, infinite int) {
	t.Helper()
	dm := eng.DelayModel()
	n := eng.C.N()
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s of gate %d %v (engine) != %v (reference)", label, what, i, got[i], want[i])
			}
		}
	}
	// At (0.1 V, 0.2 V) a gate with two or more fanins stalls.
	for _, pt := range []struct{ vdd, vts, w float64 }{
		{1.0, 0.15, 2},
		{2.5, 0.45, 8},
		{1.7, 0.25, 1},
		{0.1, 0.2, 3},
	} {
		for _, v := range sweepVariants {
			for _, mixed := range []bool{false, true} {
				a := v.make(n, pt.vdd, pt.vts, pt.w)
				if mixed {
					for i := range a.W {
						a.W[i] = pt.w * (1 + 0.75*float64(i%5))
					}
				}
				where := fmt.Sprintf("%s %s @%v mixed=%v", label, v.name, pt, mixed)
				wantArr, wantTd := dm.Arrivals(a)
				same(where+" Delays", eng.Delays(a), wantTd)
				if got, want := eng.CriticalDelay(a), dm.CriticalDelay(a); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: critical delay %v != %v", where, got, want)
				}
				eng.Bind(a)
				same(where+" Bind delay", eng.BoundDelays(), wantTd)
				same(where+" Bind arrival", eng.curArr, wantArr)
				if got, want := eng.BoundCriticalDelay(), dm.CriticalDelay(a); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: bound critical delay %v != %v", where, got, want)
				}
				eng.Unbind()
				for _, d := range wantTd {
					compared++
					if math.IsInf(d, 1) {
						infinite++
					}
				}
			}
		}
	}
	return compared, infinite
}

func TestLevelizedSweepMatchesFlatWalkSuite(t *testing.T) {
	var compared, infinite int
	for _, name := range netgen.SuiteNames() {
		c, i := checkLevelizedAgreesWithFlatWalk(t, levelizedCase(t, name, 0), name)
		compared, infinite = compared+c, infinite+i
	}
	eng := newEngine(t, wideCircuit(t))
	cold := 0
	for _, sl := range eng.WidthScratch().t.slots {
		if sl.flags&slotCold != 0 {
			cold++
		}
	}
	if cold == 0 {
		t.Fatal("the 70-fanin gate is not a cold slot")
	}
	c, i := checkLevelizedAgreesWithFlatWalk(t, eng, "wide")
	compared, infinite = compared+c, infinite+i
	if infinite == 0 || infinite == compared {
		t.Errorf("the comparison needs +Inf and finite delays: %d of %d +Inf", infinite, compared)
	}
}

func TestLevelizedSweepMatchesFlatWalkRandom(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		name := fmt.Sprintf("lvl-rand-%d", seed)
		checkLevelizedAgreesWithFlatWalk(t, levelizedCase(t, name, seed), name)
	}
}
