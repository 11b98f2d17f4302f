package device

import (
	"fmt"
	"math"
)

// The paper's Figure 1 proposes realizing the optimized threshold voltages
// without new implant masks: start from low-V_t "natural" devices (the
// threshold-adjust implant step is eliminated) and apply a static reverse
// bias to the p-substrate and the n-well to raise each device type's
// threshold to the optimizer's value. This file models that mapping through
// the standard body effect:
//
//	V_t(V_SB) = V_t0 + γ·(√(2φ_F + V_SB) − √(2φ_F))
//
// with γ the body-effect coefficient and 2φ_F the surface potential.

// BodyBias describes the natural-device parameters needed to translate a
// target threshold into a tub bias.
type BodyBias struct {
	Vt0   float64 // natural (zero-bias) threshold voltage
	Gamma float64 // body-effect coefficient γ
	Phi2F float64 // surface potential 2φ_F
}

// DefaultBodyBias returns natural-device parameters for the 0.35 µm flow of
// Figure 1: a 100 mV natural threshold with a typical bulk body effect.
func DefaultBodyBias() BodyBias {
	return BodyBias{Vt0: 0.10, Gamma: 0.45, Phi2F: 0.65}
}

// Validate checks physical plausibility.
func (b BodyBias) Validate() error {
	switch {
	case b.Gamma <= 0 || math.IsNaN(b.Gamma):
		return fmt.Errorf("device: body-effect gamma %v must be positive", b.Gamma)
	case b.Phi2F <= 0 || math.IsNaN(b.Phi2F):
		return fmt.Errorf("device: surface potential %v must be positive", b.Phi2F)
	case math.IsNaN(b.Vt0):
		return fmt.Errorf("device: natural threshold is NaN")
	}
	return nil
}

// Vt returns the threshold at a reverse source-to-body bias V_SB ≥ 0.
func (b BodyBias) Vt(vsb float64) float64 {
	if vsb < 0 {
		vsb = 0
	}
	return b.Vt0 + b.Gamma*(math.Sqrt(b.Phi2F+vsb)-math.Sqrt(b.Phi2F))
}

// BiasFor inverts the body-effect relation: the reverse bias that realizes
// the target threshold. It fails for targets below the natural threshold
// (forward body bias is outside the paper's static scheme) or beyond the
// practical bias limit vsbMax.
func (b BodyBias) BiasFor(vtTarget, vsbMax float64) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if vtTarget < b.Vt0-1e-12 {
		return 0, fmt.Errorf("device: target Vt %v below natural threshold %v (forward bias not supported)", vtTarget, b.Vt0)
	}
	// Invert Vt = Vt0 + γ(√(2φF+Vsb) − √(2φF)) analytically.
	root := (vtTarget-b.Vt0)/b.Gamma + math.Sqrt(b.Phi2F)
	vsb := root*root - b.Phi2F
	if vsb < 0 {
		vsb = 0
	}
	if vsb > vsbMax+1e-12 {
		return vsb, fmt.Errorf("device: target Vt %v needs %.3g V reverse bias, beyond the %.3g V limit",
			vtTarget, vsb, vsbMax)
	}
	return vsb, nil
}

// TubBiases is the static bias plan of Figure 1 for a module: the reverse
// bias applied to the p-substrate (raising NMOS V_t) and to the n-well
// (raising PMOS |V_t|), one pair per distinct threshold group.
type TubBiases struct {
	VSubstrate []float64 // per threshold group, below ground
	VNWell     []float64 // per threshold group, above V_dd
}

// PlanTubBiases maps a set of optimized threshold values to the substrate
// and n-well biases of Figure 1, assuming symmetric NMOS/PMOS natural
// devices (the paper treats both thresholds as equal in magnitude). Each
// additional distinct threshold needs its own tub, which is the "migration
// to a triple-tub process" cost the paper notes for n_v > 1.
func PlanTubBiases(nmos, pmos BodyBias, vts []float64, vsbMax float64) (*TubBiases, error) {
	if len(vts) == 0 {
		return nil, fmt.Errorf("device: no threshold values to plan biases for")
	}
	out := &TubBiases{
		VSubstrate: make([]float64, len(vts)),
		VNWell:     make([]float64, len(vts)),
	}
	for i, vt := range vts {
		vsb, err := nmos.BiasFor(vt, vsbMax)
		if err != nil {
			return nil, fmt.Errorf("threshold group %d (NMOS): %w", i, err)
		}
		out.VSubstrate[i] = vsb
		vnw, err := pmos.BiasFor(vt, vsbMax)
		if err != nil {
			return nil, fmt.Errorf("threshold group %d (PMOS): %w", i, err)
		}
		out.VNWell[i] = vnw
	}
	return out, nil
}
