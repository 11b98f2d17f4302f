package spice

import (
	"math"
	"testing"

	"cmosopt/internal/device"
)

func sim(t *testing.T) *GateSim {
	t.Helper()
	tech := device.Default350()
	return &GateSim{
		Tech: &tech, W: 2, CL: 10e-15, Vdd: 3.3, Vts: 0.7, Fanin: 1,
	}
}

func TestValidation(t *testing.T) {
	cases := []func(*GateSim){
		func(s *GateSim) { s.Tech = nil },
		func(s *GateSim) { s.W = 0 },
		func(s *GateSim) { s.CL = -1 },
		func(s *GateSim) { s.Vdd = 0 },
		func(s *GateSim) { s.Vts = 0 },
		func(s *GateSim) { s.Fanin = 0 },
	}
	for i, mut := range cases {
		s := sim(t)
		mut(s)
		if _, err := s.FallDelay(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFallDelayMatchesAnalytic(t *testing.T) {
	// The analytic switching term assumes constant saturation current down
	// to Vdd/2; the transient should agree closely in strong inversion.
	s := sim(t)
	simT, ana, ratio, err := s.CompareDelay()
	if err != nil {
		t.Fatal(err)
	}
	if simT <= 0 || ana <= 0 {
		t.Fatalf("degenerate delays: sim %v ana %v", simT, ana)
	}
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("sim/analytic = %v (sim %v, ana %v), want ≈1", ratio, simT, ana)
	}
}

func TestFallDelayScalesWithLoad(t *testing.T) {
	s := sim(t)
	d1, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	s.CL *= 3
	d3, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	if r := d3 / d1; r < 2.7 || r > 3.3 {
		t.Errorf("3x load scaled delay by %v, want ~3", r)
	}
}

func TestFallDelayScalesInverselyWithWidth(t *testing.T) {
	s := sim(t)
	d1, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	s.W *= 4
	d4, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	if r := d1 / d4; r < 3.5 || r > 4.5 {
		t.Errorf("4x width sped up by %v, want ~4", r)
	}
}

func TestStackSlowdown(t *testing.T) {
	s := sim(t)
	d1, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	s.Fanin = 3
	d3, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	if d3 <= d1 {
		t.Errorf("3-deep stack (%v) not slower than inverter (%v)", d3, d1)
	}
}

func TestSubthresholdTransientFiniteAndSlow(t *testing.T) {
	s := sim(t)
	super, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	s.Vdd, s.Vts = 0.3, 0.45 // subthreshold operation
	sub, err := s.FallDelay()
	if err != nil {
		t.Fatal(err)
	}
	if sub < 50*super {
		t.Errorf("subthreshold %v should be orders slower than %v", sub, super)
	}
	// The transregional analytic model should still track within ~2x.
	_, _, ratio, err := s.CompareDelay()
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.5 || ratio > 2.5 {
		t.Errorf("subthreshold sim/analytic = %v", ratio)
	}
}

func TestRiseEnergyIsCV2(t *testing.T) {
	s := sim(t)
	e, err := s.RiseEnergy()
	if err != nil {
		t.Fatal(err)
	}
	want := s.CL * s.Vdd * s.Vdd
	if r := e / want; r < 0.9 || r > 1.1 {
		t.Errorf("supply energy %v, want ≈ C·Vdd² = %v (ratio %v)", e, want, r)
	}
}

func TestRiseEnergyQuadraticInVdd(t *testing.T) {
	s := sim(t)
	s.Vts = 0.3
	e1, err := s.RiseEnergy()
	if err != nil {
		t.Fatal(err)
	}
	s.Vdd = s.Vdd / 2
	e2, err := s.RiseEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if r := e1 / e2; r < 3.5 || r > 4.5 {
		t.Errorf("halving Vdd changed energy by %v, want ~4", r)
	}
}

func TestStepConvergence(t *testing.T) {
	s := sim(t)
	d1, err := s.fallDelay(200)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.fallDelay(1600)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(d1-d2) / d2; rel > 0.02 {
		t.Errorf("step halving moved delay by %v, integrator not converged", rel)
	}
}

func TestUnswitchableGate(t *testing.T) {
	s := sim(t)
	s.Vdd = 0.011 // far below even the overlapping leakage floor
	s.Vts = 0.7
	s.Fanin = 4
	if _, err := s.FallDelay(); err == nil {
		t.Error("expected unswitchable-gate error")
	}
}
