// Package device models the MOSFET technology the optimizer designs against.
//
// The drain current uses a single smooth "transregional" expression that
// reduces to the Sakurai–Newton α-power law above threshold and to an
// exponential subthreshold law below it (the paper's Appendix A.2 requirement
// that the delay model be accurate for both V_dd > V_TS and V_dd ≤ V_TS):
//
//	g(V)  = n·vT · ln(1 + exp((V − V_TS)/(n·vT)))   (smoothed overdrive)
//	I_D   = K · g(V_GS)^α                            (per unit-width device)
//	I_off = I_D(V_GS = 0) + I_junc
//
// g(V) → (V − V_TS) for V ≫ V_TS (α-power law) and → n·vT·exp((V−V_TS)/(n·vT))
// for V ≪ V_TS, giving a subthreshold swing of n·vT·ln10/α volts per decade.
// The expression is continuous and strictly monotone in both V_GS and V_TS —
// the property Procedure 2's directional bisection relies on.
//
// All per-device quantities are normalized to a device of one unit of
// feature-size width (the paper's w_i = 1); gate-level models scale them by
// the width multiplier.
package device

import (
	"fmt"
	"math"
)

// Tech aggregates every technology parameter of the device, capacitance and
// range model. Construct one with Default350 and override fields as needed,
// then call Validate.
type Tech struct {
	Name string

	// Device model.
	Alpha  float64 // α-power-law velocity-saturation exponent
	N      float64 // subthreshold ideality factor of the smooth model
	VTherm float64 // thermal voltage kT/q (V)
	KSat   float64 // drive factor: I_D = KSat·g^α for a unit-width device (A/V^α)
	IJunc  float64 // drain-junction leakage of a unit-width device (A)
	// LeakStack is the effective number of unit-width off devices leaking
	// per gate width unit: a static CMOS gate leaks through its whole
	// pull-up or pull-down network (with the β-wider PMOS side), not one
	// minimum device. It scales I_off only.
	LeakStack float64

	// Capacitances, per unit-width device.
	Ct  float64 // gate-input capacitance C_t (F)
	CPD float64 // output parasitic (overlap+junction+fringing) C_PD (F)
	Cmi float64 // intermediate-node capacitance of series stacks C_mi (F)

	// Module-level loads.
	COut float64 // external load seen by each primary output (F)

	// Optimization ranges (the paper's Procedure 2 ranges).
	VddMin, VddMax float64 // supply range (V)
	VtsMin, VtsMax float64 // threshold range (V)
	WMin, WMax     float64 // width multiplier range
}

// Default350 returns a parameter set representative of a 1997-era 0.35 µm
// CMOS process at hot-chip junction temperature: a unit-width (one feature
// size, 0.35 µm) device drives ≈60 µA at V_dd = 3.3 V, V_TS = 0.7 V
// (≈170 µA/µm) with a gate off-current of ≈11 pA and a subthreshold swing of
// ≈124 mV/decade. α = 1.05 reflects the strongly velocity-saturated /
// quasi-ballistic transport the paper's delay model incorporates — the
// property that makes supply scaling nearly delay-free and enables the
// paper's low-V_dd optima. The drive/capacitance balance is calibrated so
// the benchmark suite is just feasible at 300 MHz with V_t = 0.7 V near
// V_dd = 3.3 V, matching the operating regime of the paper's Table 1; see
// DESIGN.md §2.
func Default350() Tech {
	return Tech{
		Name:      "generic-0.35um",
		Alpha:     1.05,
		N:         1.76,  // with VTherm below: ≈125 mV/dec at hot-chip temperature
		VTherm:    0.032, // kT/q at ≈100 °C junction temperature
		KSat:      3.2e-5,
		IJunc:     1.0e-17,
		LeakStack: 5.0,
		Ct:        1.5e-15,
		CPD:       0.8e-15,
		Cmi:       0.4e-15,
		COut:      6.0e-15,
		VddMin:    0.1, VddMax: 3.3,
		VtsMin: 0.1, VtsMax: 0.7,
		WMin: 1, WMax: 100,
	}
}

// Default250 returns a parameter set for the next scaling node (0.25 µm,
// V_dd,max = 2.5 V): capacitances scale by ~0.7×, drive per
// unit width improves slightly, and the junction leakage floor doubles —
// the standard constant-field scaling picture. Useful for cross-node
// studies with the process-design mode (the paper's §1 application of the
// optimizer to technology definition).
func Default250() Tech {
	t := Default350()
	t.Name = "generic-0.25um"
	t.KSat = 3.8e-5 // slightly better velocity-saturated drive per width unit
	t.IJunc = 2.0e-17
	t.Ct = 1.05e-15 // ~0.7x of the 0.35 µm values
	t.CPD = 0.56e-15
	t.Cmi = 0.28e-15
	t.COut = 4.2e-15
	t.VddMax = 2.5
	t.VtsMax = 0.6
	return t
}

// Validate checks the parameter set for physical plausibility.
func (t *Tech) Validate() error {
	for _, key := range techKeys() {
		if v := *techFields[key](t); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("device: %s = %v must be finite", key, v)
		}
	}
	pos := []struct {
		v    float64
		name string
	}{
		{t.Alpha, "Alpha"}, {t.N, "N"}, {t.VTherm, "VTherm"},
		{t.KSat, "KSat"}, {t.Ct, "Ct"}, {t.CPD, "CPD"}, {t.LeakStack, "LeakStack"},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("device: %s = %v must be positive", p.name, p.v)
		}
	}
	if t.IJunc < 0 || t.Cmi < 0 || t.COut < 0 {
		return fmt.Errorf("device: IJunc, Cmi, COut must be non-negative")
	}
	if t.Alpha < 1 || t.Alpha > 2 {
		return fmt.Errorf("device: Alpha = %v outside the physical range [1,2]", t.Alpha)
	}
	if !(t.VddMin > 0 && t.VddMin < t.VddMax) {
		return fmt.Errorf("device: bad Vdd range [%v,%v]", t.VddMin, t.VddMax)
	}
	if !(t.VtsMin > 0 && t.VtsMin < t.VtsMax) {
		return fmt.Errorf("device: bad Vts range [%v,%v]", t.VtsMin, t.VtsMax)
	}
	if !(t.WMin >= 1 && t.WMin < t.WMax) {
		return fmt.Errorf("device: bad width range [%v,%v]", t.WMin, t.WMax)
	}
	return nil
}

// Overdrive returns the smoothed overdrive g(V) in volts.
func (t *Tech) Overdrive(vgs, vts float64) float64 {
	nvt := t.N * t.VTherm
	x := (vgs - vts) / nvt
	// ln(1+e^x) computed stably on both tails.
	switch {
	case x > 40:
		return nvt * x
	case x < -40:
		return nvt * math.Exp(x)
	default:
		return nvt * math.Log1p(math.Exp(x))
	}
}

// IdUnit returns the saturation drain current of a unit-width device at the
// given gate drive and threshold (A).
func (t *Tech) IdUnit(vgs, vts float64) float64 {
	return t.KSat * math.Pow(t.Overdrive(vgs, vts), t.Alpha)
}

// IoffUnit returns the off-state leakage per unit of gate width: the
// subthreshold channel current at V_GS = 0 plus drain-junction leakage,
// scaled by the gate's effective number of leaking stacks (LeakStack).
func (t *Tech) IoffUnit(vts float64) float64 {
	return t.LeakStack * (t.IdUnit(0, vts) + t.IJunc)
}
