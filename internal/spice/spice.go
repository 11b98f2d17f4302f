// Package spice is a small numerical transient simulator for single CMOS
// gate switching events, standing in for the HSPICE validation the paper
// performed on its analytic energy and delay models ("These models have been
// extensively validated with HSPICE").
//
// It integrates the output-node ODE
//
//	C_L · dV_out/dt = −I_pulldown(V_out) + I_leak,up
//
// with a fourth-order Runge–Kutta scheme, using the same transregional
// drain-current model as the analytic path (device.Tech) extended with a
// smooth saturation-to-triode transition in V_DS. The 50 %-crossing time of
// the simulated waveform is compared against the analytic switching delay
// term, and the integrated supply charge against the C·V² switching energy.
package spice

import (
	"fmt"
	"math"

	"cmosopt/internal/device"
)

// GateSim describes one gate switching event: an input step at t = 0 turning
// on a pull-down path of Fanin series devices of width W, discharging C_L
// from V_dd.
type GateSim struct {
	Tech  *device.Tech
	W     float64 // width multiplier (≥ tech WMin)
	CL    float64 // output load capacitance (F)
	Vdd   float64 // supply (V)
	Vts   float64 // threshold (V)
	Fanin int     // series stack depth (1 = inverter)
}

// steps is the number of integration steps per analytic delay estimate.
const steps = 400

func (s *GateSim) validate() error {
	switch {
	case s.Tech == nil:
		return fmt.Errorf("spice: nil tech")
	case s.W <= 0:
		return fmt.Errorf("spice: width %v must be positive", s.W)
	case s.CL <= 0:
		return fmt.Errorf("spice: load %v must be positive", s.CL)
	case s.Vdd <= 0:
		return fmt.Errorf("spice: Vdd %v must be positive", s.Vdd)
	case s.Vts <= 0:
		return fmt.Errorf("spice: Vts %v must be positive", s.Vts)
	case s.Fanin < 1:
		return fmt.Errorf("spice: fanin %d must be ≥ 1", s.Fanin)
	}
	return s.Tech.Validate()
}

// drainCurrent returns the pull-down current at output voltage vds, using
// the shared transregional saturation current shaped by a smooth
// triode/saturation factor (1 − e^(−Vds/Veff)), where Veff tracks the
// saturation voltage in strong inversion and the thermal voltage below
// threshold. Series stacks divide the drive by the stack depth.
func (s *GateSim) drainCurrent(vds float64) float64 {
	if vds <= 0 {
		return 0
	}
	isat := s.W * s.Tech.IdUnit(s.Vdd, s.Vts) / float64(s.Fanin)
	veff := 0.4 * s.Tech.Overdrive(s.Vdd, s.Vts)
	if minV := s.Tech.VTherm; veff < minV {
		veff = minV
	}
	return isat * (1 - math.Exp(-vds/veff))
}

// leakUp returns the opposing pull-up leakage fighting the transition.
func (s *GateSim) leakUp() float64 {
	return s.W * s.Tech.IoffUnit(s.Vts)
}

// analyticDelay returns the closed-form switching-delay estimate the
// simulator validates: V_dd·C_L / (2·(I_sat − I_leak)).
func (s *GateSim) analyticDelay() float64 {
	drive := s.W*s.Tech.IdUnit(s.Vdd, s.Vts)/float64(s.Fanin) - s.leakUp()
	if drive <= 0 {
		return math.Inf(1)
	}
	return s.Vdd * s.CL / (2 * drive)
}

// FallDelay integrates the falling output transition and returns the time at
// which V_out crosses V_dd/2. It fails if the gate cannot discharge (drive
// weaker than opposing leakage) or the waveform never crosses within 100×
// the analytic estimate.
func (s *GateSim) FallDelay() (float64, error) { return s.fallDelay(steps) }

// fallDelay is FallDelay integrated in n steps per analytic delay estimate.
func (s *GateSim) fallDelay(n int) (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	ta := s.analyticDelay()
	if math.IsInf(ta, 1) {
		return 0, fmt.Errorf("spice: gate cannot switch (leakage exceeds drive)")
	}
	dt := ta / float64(n)
	deriv := func(v float64) float64 {
		return (-s.drainCurrent(v) + s.leakUp()) / s.CL
	}
	v := s.Vdd
	half := s.Vdd / 2
	tMax := 100 * ta
	for t := 0.0; t < tMax; t += dt {
		prev := v
		v = rk4(v, dt, deriv)
		if v <= half {
			// Linear interpolation inside the crossing step.
			frac := (prev - half) / (prev - v)
			return t + frac*dt, nil
		}
	}
	return 0, fmt.Errorf("spice: no 50%% crossing within %v s", tMax)
}

// RiseEnergy integrates the supply charge delivered while the pull-up
// (modeled symmetrically to the pull-down) charges C_L from 0 to V_dd, and
// returns the energy drawn from the supply, E = V_dd·∫i dt. For an ideal
// full-swing transition this is C_L·V_dd².
func (s *GateSim) RiseEnergy() (float64, error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	ta := s.analyticDelay()
	if math.IsInf(ta, 1) {
		return 0, fmt.Errorf("spice: gate cannot switch (leakage exceeds drive)")
	}
	dt := ta / steps
	// Pull-up drive mirrors the pull-down with Vsd = Vdd − Vout.
	v := 0.0
	energy := 0.0
	tMax := 200 * ta
	for t := 0.0; t < tMax; t += dt {
		i := s.drainCurrent(s.Vdd-v) - s.leakUp()
		if i <= 0 {
			break
		}
		v = rk4(v, dt, func(x float64) float64 {
			return (s.drainCurrent(s.Vdd-x) - s.leakUp()) / s.CL
		})
		energy += s.Vdd * i * dt
		if v >= s.Vdd*0.999 {
			break
		}
	}
	return energy, nil
}

// CompareDelay runs the transient and returns (simulated, analytic, ratio).
// It is the validation harness used by tests and the model-validation
// example.
func (s *GateSim) CompareDelay() (sim, analytic, ratio float64, err error) {
	sim, err = s.FallDelay()
	if err != nil {
		return 0, 0, 0, err
	}
	analytic = s.analyticDelay()
	return sim, analytic, sim / analytic, nil
}

func rk4(v, dt float64, f func(float64) float64) float64 {
	k1 := f(v)
	k2 := f(v + dt/2*k1)
	k3 := f(v + dt/2*k2)
	k4 := f(v + dt*k3)
	return v + dt/6*(k1+2*k2+2*k3+k4)
}
