package core

import (
	"testing"

	"cmosopt/internal/design"
)

func TestDualVddNeverWorse(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	joint, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dv, err := p.OptimizeDualVdd(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !dv.Feasible {
		t.Fatal("dual-Vdd result infeasible")
	}
	if dv.Energy.Total() > joint.Energy.Total()*(1+1e-9) {
		t.Errorf("dual-Vdd %v worse than single rail %v", dv.Energy.Total(), joint.Energy.Total())
	}
	if dv.CriticalDelay > p.CycleBudget() {
		t.Error("dual-Vdd violates cycle time")
	}
}

func TestDualVddRespectsRailRule(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	dv, err := p.OptimizeDualVdd(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bad := p.CheckRailRule(dv.Assignment); bad != 0 {
		t.Errorf("%d low-rail gates drive higher-rail fanouts", bad)
	}
}

func TestLowRailShare(t *testing.T) {
	p := problemFor(t, s298(t), 0.5)
	dv, err := p.OptimizeDualVdd(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	frac, low, high, ok := p.LowRailShare(dv)
	if dv.Assignment.VddPer == nil {
		if ok {
			t.Error("single-rail design reported as dual")
		}
		return
	}
	if !ok {
		t.Fatal("dual design not recognized")
	}
	if frac <= 0 || frac >= 1 {
		t.Errorf("low-rail fraction %v should be interior", frac)
	}
	if low >= high {
		t.Errorf("rails %v >= %v", low, high)
	}
}

func TestCheckRailRuleDetectsViolations(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	n := p.C.N()
	a := design.Uniform(n, 1.0, 0.2, 2)
	a.VddPer = make([]float64, n)
	for i := range a.VddPer {
		a.VddPer[i] = 1.0
	}
	// Put an internal driver (a logic gate with fanout) on a lower rail
	// while its fanouts stay high: must be flagged.
	for i := range p.C.Gates {
		g := p.C.Gate(i)
		if g.IsLogic() && p.cs.NumFanout(int32(i)) > 0 {
			a.VddPer[i] = 0.5
			break
		}
	}
	if bad := p.CheckRailRule(a); bad == 0 {
		t.Error("rail-rule violation not detected")
	}
	if bad := p.CheckRailRule(design.Uniform(n, 1.0, 0.2, 2)); bad != 0 {
		t.Error("uniform assignment flagged")
	}
}

func TestVddAtAndDistinct(t *testing.T) {
	a := design.Uniform(3, 1.2, 0.2, 2)
	if a.VddAt(1) != 1.2 || a.MaxVdd() != 1.2 {
		t.Error("uniform VddAt/MaxVdd broken")
	}
	if got := a.DistinctVdds(); len(got) != 1 || got[0] != 1.2 {
		t.Errorf("DistinctVdds = %v", got)
	}
	a.VddPer = []float64{1.2, 0.6, 1.2}
	if a.VddAt(1) != 0.6 {
		t.Errorf("VddAt(1) = %v", a.VddAt(1))
	}
	if a.MaxVdd() != 1.2 {
		t.Errorf("MaxVdd = %v", a.MaxVdd())
	}
	if got := a.DistinctVdds(); len(got) != 2 {
		t.Errorf("DistinctVdds = %v", got)
	}
	b := a.Clone()
	b.VddPer[0] = 0.1
	if a.VddPer[0] != 1.2 {
		t.Error("Clone shares VddPer")
	}
}

func TestPerGateVddAffectsModels(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	n := p.C.N()
	uni := design.Uniform(n, 1.0, 0.2, 2)
	per := uni.Clone()
	per.VddPer = make([]float64, n)
	for i := range per.VddPer {
		per.VddPer[i] = 1.0
	}
	// Lower one sink gate's rail: its energy must drop, total must drop.
	var sink int
	for i := range p.C.Gates {
		g := p.C.Gate(i)
		if g.IsLogic() && p.cs.NumFanout(int32(i)) == 0 {
			sink = i
			break
		}
	}
	per.VddPer[sink] = 0.5
	if p.Eval.GateEnergy(sink, per).Total() >= p.Eval.GateEnergy(sink, uni).Total() {
		t.Error("lower rail did not reduce the gate's energy")
	}
	if p.Eval.Energy(per).Total() >= p.Eval.Energy(uni).Total() {
		t.Error("lower rail did not reduce total energy")
	}
	// And its delay must grow.
	if p.Eval.GateDelayWith(sink, per, 0) <= p.Eval.GateDelayWith(sink, uni, 0) {
		t.Error("lower rail did not slow the gate")
	}
}
