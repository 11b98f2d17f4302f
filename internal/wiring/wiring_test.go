package wiring

import (
	"math"
	"testing"
	"testing/quick"
)

func model(t *testing.T, n int) *Model {
	t.Helper()
	m, err := New(Default350(), n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidation(t *testing.T) {
	good := Default350()
	if _, err := New(good, 100); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.RentP = 0 },
		func(p *Params) { p.RentP = 1 },
		func(p *Params) { p.RentK = -1 },
		func(p *Params) { p.AvgFanout = 0 },
		func(p *Params) { p.GatePitch = 0 },
		func(p *Params) { p.CPerLen = -1 },
		func(p *Params) { p.Velocity = 0 },
	}
	for i, mut := range mutations {
		p := good
		mut(&p)
		if _, err := New(p, 100); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(good, 0); err == nil {
		t.Error("zero gate count accepted")
	}
}

func TestDensitySupport(t *testing.T) {
	m := model(t, 400) // √N = 20
	if m.Density(0.5) != 0 {
		t.Error("density below l=1 should be 0")
	}
	if m.Density(41) != 0 {
		t.Error("density beyond 2√N should be 0")
	}
	for _, l := range []float64{1, 5, 19, 20, 21, 39} {
		if d := m.Density(l); d <= 0 {
			t.Errorf("density(%v) = %v, want > 0", l, d)
		}
	}
}

func TestDensityContinuousAtRegionBoundary(t *testing.T) {
	m := model(t, 900) // √N = 30
	below := m.Density(30 - 1e-9)
	above := m.Density(30 + 1e-9)
	if rel := math.Abs(below-above) / below; rel > 1e-6 {
		t.Errorf("discontinuity at √N: %v vs %v", below, above)
	}
}

func TestDensityDecreasingTail(t *testing.T) {
	m := model(t, 400)
	// In region 2 the density must fall monotonically to 0 at 2√N.
	prev := m.Density(21)
	for l := 22.0; l <= 40; l++ {
		cur := m.Density(l)
		if cur > prev {
			t.Fatalf("density rising in tail at l=%v: %v > %v", l, cur, prev)
		}
		prev = cur
	}
}

func TestMeanPitchesBounds(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%5000 + 2
		m, err := New(Default350(), n)
		if err != nil {
			return false
		}
		mean := m.meanPitches
		return mean >= 1 && mean <= 2*math.Sqrt(float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanGrowsWithNForHighRent(t *testing.T) {
	p := Default350()
	p.RentP = 0.7
	small, _ := New(p, 100)
	large, _ := New(p, 10000)
	if large.meanPitches <= small.meanPitches {
		t.Errorf("mean should grow with N for p=0.7: %v vs %v",
			small.meanPitches, large.meanPitches)
	}
}

func TestHigherRentExponentLongerWires(t *testing.T) {
	lo, hi := Default350(), Default350()
	lo.RentP, hi.RentP = 0.45, 0.75
	ml, _ := New(lo, 2000)
	mh, _ := New(hi, 2000)
	if mh.meanPitches <= ml.meanPitches {
		t.Errorf("p=0.75 should give longer wires than p=0.45: %v vs %v",
			mh.meanPitches, ml.meanPitches)
	}
}

func TestDerivedQuantities(t *testing.T) {
	m := model(t, 200)
	bl := m.BranchLength()
	if bl <= 0 {
		t.Fatal("non-positive branch length")
	}
	if got := m.BranchCap(); math.Abs(got-bl*m.P.CPerLen) > 1e-30 {
		t.Errorf("BranchCap = %v", got)
	}
	if got := m.BranchRes(); math.Abs(got-bl*m.P.RPerLen) > 1e-12 {
		t.Errorf("BranchRes = %v", got)
	}
	if got := m.FlightTime(); math.Abs(got-bl/m.P.Velocity) > 1e-24 {
		t.Errorf("FlightTime = %v", got)
	}
}

func TestRealisticMagnitudes(t *testing.T) {
	// A ~200-gate module in 0.35 µm: branch length tens of µm, cap a few fF,
	// flight time well under a ps — sanity anchors for the delay model.
	m := model(t, 200)
	if l := m.BranchLength(); l < 5e-6 || l > 500e-6 {
		t.Errorf("branch length %v m implausible", l)
	}
	if c := m.BranchCap(); c < 0.5e-15 || c > 100e-15 {
		t.Errorf("branch cap %v F implausible", c)
	}
	if ft := m.FlightTime(); ft > 5e-12 {
		t.Errorf("flight time %v s implausible", ft)
	}
}

func TestDieAndTotalWireEstimates(t *testing.T) {
	m := model(t, 400)
	// 400 gates on a 5.25 um pitch: 20 x 20 sites -> 105 um edge.
	if edge := m.DieEdge(); math.Abs(edge-20*m.P.GatePitch) > 1e-12 {
		t.Errorf("die edge = %v", edge)
	}
	if got := m.TotalWireEstimate(800); math.Abs(got-800*m.BranchLength()) > 1e-9 {
		t.Errorf("total wire = %v", got)
	}
	if got := m.TotalWireEstimate(-5); got != 0 {
		t.Errorf("negative edges should clamp to 0, got %v", got)
	}
}

// The accessors load constants derived once, in New. They must equal the
// expressions they replace bit for bit: the branch length in meters times C
// or R per length, or over the velocity.
func TestNetConstantsMatchExpressions(t *testing.T) {
	odd := Default350()
	odd.GatePitch, odd.CPerLen, odd.RPerLen, odd.Velocity = 3.7e-6, 1.9e-10, 0.7e5, 1.3e8
	for _, p := range []Params{Default350(), odd} {
		m, err := New(p, 500)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %v (%#x), expression %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		l := m.BranchLength()
		same("BranchCap", m.BranchCap(), l*m.P.CPerLen)
		same("BranchRes", m.BranchRes(), l*m.P.RPerLen)
		same("FlightTime", m.FlightTime(), l/m.P.Velocity)
	}
}
