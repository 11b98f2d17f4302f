package eval

import (
	"fmt"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// The engine's full sweeps walk the circuit level by level over the CSR
// arrays; the delay.Evaluator keeps the legacy flat topological walk over the
// Gate slices. The two must agree bit for bit — per-gate delay depends only
// on fanin values, never on sweep order — which makes the raw evaluator the
// reference implementation for the levelized rework. These property tests pin
// that equivalence across the whole benchmark suite and randomized networks.

func levelizedCase(t *testing.T, name string, seed int64) (*Engine, int) {
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
	tech := device.Default350()
	act, err := activity.PropagateUniform(cc, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := wiring.New(wiring.Default350(), max(cc.NumLogic(), 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cc, &tech, act, wire, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return eng, cc.N()
}

func checkLevelizedAgreesWithFlatWalk(t *testing.T, eng *Engine, n int, label string) {
	t.Helper()
	dm := eng.DelayModel()
	for _, pt := range []struct{ vdd, vts, w float64 }{
		{1.0, 0.15, 2},
		{2.5, 0.45, 8},
		{1.7, 0.25, 1},
	} {
		a := design.Uniform(n, pt.vdd, pt.vts, pt.w)
		wantTd := dm.Delays(a)
		gotTd := eng.Delays(a)
		for i := range wantTd {
			if gotTd[i] != wantTd[i] {
				t.Fatalf("%s @%v: gate %d delay %v (levelized) != %v (flat walk)",
					label, pt, i, gotTd[i], wantTd[i])
			}
		}
		wantArr, _ := dm.Arrivals(a)
		gotArr, _ := eng.Arrivals(a)
		for i := range wantArr {
			if gotArr[i] != wantArr[i] {
				t.Fatalf("%s @%v: gate %d arrival %v (levelized) != %v (flat walk)",
					label, pt, i, gotArr[i], wantArr[i])
			}
		}
		if got, want := eng.CriticalDelay(a), dm.CriticalDelay(a); got != want {
			t.Fatalf("%s @%v: critical delay %v != %v", label, pt, got, want)
		}
	}
}

func TestLevelizedSweepMatchesFlatWalkSuite(t *testing.T) {
	for _, name := range netgen.SuiteNames() {
		eng, n := levelizedCase(t, name, 0)
		checkLevelizedAgreesWithFlatWalk(t, eng, n, name)
	}
}

func TestLevelizedSweepMatchesFlatWalkRandom(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		name := fmt.Sprintf("lvl-rand-%d", seed)
		eng, n := levelizedCase(t, name, seed)
		checkLevelizedAgreesWithFlatWalk(t, eng, n, name)
	}
}
