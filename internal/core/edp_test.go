package core

import "testing"

func TestEDPStudyShape(t *testing.T) {
	spec := specFor(smallCircuit(t), 0.5)
	fcs := []float64{50e6, 150e6, 300e6, 600e6}
	pts, best, err := EDPStudy(spec, fcs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("only %d feasible samples", len(pts))
	}
	if best < 0 || best >= len(pts) {
		t.Fatalf("best index %d out of range", best)
	}
	for i, pt := range pts {
		if pt.EDP <= 0 {
			t.Errorf("sample %d EDP %v", i, pt.EDP)
		}
		if pt.EDP < pts[best].EDP {
			t.Errorf("best index wrong: sample %d has %v < %v", i, pt.EDP, pts[best].EDP)
		}
	}
	// Energy per cycle must fall as the clock relaxes (more room to scale
	// voltages), which is what creates the interior EDP trade-off: the
	// slowest target (first sample) spends the least energy per cycle.
	first, last := pts[0], pts[len(pts)-1]
	if first.Fc < last.Fc && first.Result.Energy.Total() >= last.Result.Energy.Total() {
		t.Errorf("energy did not fall with relaxed clock: %v@%v vs %v@%v",
			first.Result.Energy.Total(), first.Fc, last.Result.Energy.Total(), last.Fc)
	}
}

func TestEDPStudySkipsInfeasibleTargets(t *testing.T) {
	spec := specFor(s298(t), 0.5)
	pts, best, err := EDPStudy(spec, []float64{300e6, 50e9}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("expected the 50 GHz target to be skipped, got %d samples", len(pts))
	}
	if best != 0 {
		t.Errorf("best = %d", best)
	}
}

func TestEDPStudyErrors(t *testing.T) {
	spec := specFor(smallCircuit(t), 0.5)
	if _, _, err := EDPStudy(spec, nil, DefaultOptions()); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, _, err := EDPStudy(spec, []float64{50e9}, DefaultOptions()); err == nil {
		t.Error("all-infeasible sweep accepted")
	}
	bad := spec
	bad.Skew = -1
	if _, _, err := EDPStudy(bad, []float64{300e6}, DefaultOptions()); err == nil {
		t.Error("bad spec accepted")
	}
}
