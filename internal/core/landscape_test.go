package core

import (
	"math"
	"testing"
)

func TestSampleLandscapeShape(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	ls, err := p.SampleLandscape(7, 7, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.E) != 7 || len(ls.E[0]) != 7 {
		t.Fatalf("grid %dx%d", len(ls.E), len(ls.E[0]))
	}
	frac := ls.FeasibleFraction()
	if frac <= 0 || frac >= 1 {
		t.Errorf("feasible fraction %v should be interior (wall exists)", frac)
	}
	vdd, vts, e, ok := ls.Min()
	if !ok || math.IsInf(e, 1) {
		t.Fatal("no feasible grid point")
	}
	// §3 physics: the grid minimum sits at low supply and low threshold, far
	// from the (VddMax, VtsMax) corner.
	if vdd > 2.0 || vts > 0.45 {
		t.Errorf("grid minimum at (%v, %v), expected low-voltage corner region", vdd, vts)
	}
	// Feasibility is monotone in Vdd at fixed Vts: once feasible, staying
	// feasible as the supply rises.
	for j := range ls.Vts {
		seen := false
		for i := range ls.Vdd {
			feas := !math.IsInf(ls.E[i][j], 1)
			if seen && !feas {
				t.Errorf("feasibility not monotone in Vdd at Vts=%v", ls.Vts[j])
				break
			}
			if feas {
				seen = true
			}
		}
	}
}

func TestSampleLandscapeValidation(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	if _, err := p.SampleLandscape(1, 5, DefaultOptions()); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestLandscapeMinNearProcedure2Optimum(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.SampleLandscape(9, 9, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, _, e, ok := ls.Min()
	if !ok {
		t.Fatal("no feasible grid point")
	}
	// The heuristic must be at least as good as a coarse grid scan.
	if res.Energy.Total() > e*1.2 {
		t.Errorf("Procedure 2 result %v much worse than grid minimum %v", res.Energy.Total(), e)
	}
}

func TestYieldStudyBasics(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Zero variation: every die identical, full yield.
	y0, err := p.YieldStudy(res.Assignment, 0, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y0.TimingYield != 1 {
		t.Errorf("zero-sigma yield %v, want 1", y0.TimingYield)
	}
	if math.Abs(y0.MeanEnergy-res.Energy.Total())/res.Energy.Total() > 1e-9 {
		t.Errorf("zero-sigma mean energy %v != %v", y0.MeanEnergy, res.Energy.Total())
	}
	// Growing variation cannot raise the yield.
	y10, err := p.YieldStudy(res.Assignment, 0.10, 300, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	y25, err := p.YieldStudy(res.Assignment, 0.25, 300, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if y25.TimingYield > y10.TimingYield+0.02 {
		t.Errorf("yield rose with sigma: %v -> %v", y10.TimingYield, y25.TimingYield)
	}
	if y10.P95Energy < y10.MeanEnergy {
		t.Errorf("P95 %v below mean %v", y10.P95Energy, y10.MeanEnergy)
	}
}

func TestCornerOptimizedDesignYieldsBetter(t *testing.T) {
	// The Figure 2(a) methodology's point, statistically: a design optimized
	// under ±20 % worst-case corners must survive random ±7 % variation at
	// least as often as the nominal design.
	p := problemFor(t, s298(t), 0.5)
	nominal, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.VtTimingFactor = 1.2
	o.VtPowerFactor = 0.8
	guarded, err := p.OptimizeJoint(o)
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 0.07
	yNom, err := p.YieldStudy(nominal.Assignment, sigma, 400, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	yGuard, err := p.YieldStudy(guarded.Assignment, sigma, 400, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if yGuard.TimingYield < yNom.TimingYield-0.02 {
		t.Errorf("corner-optimized yield %v below nominal %v", yGuard.TimingYield, yNom.TimingYield)
	}
}

func TestYieldStudyValidation(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.YieldStudy(res.Assignment, -0.1, 10, 1, 1); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := p.YieldStudy(res.Assignment, 0.1, 0, 1, 1); err == nil {
		t.Error("zero samples accepted")
	}
}
