// Package wiring estimates interconnect loads for a random logic network
// using the complete stochastic wire-length distribution of Davis, De and
// Meindl (the paper's references [4,5]), derived from recursive application
// of Rent's rule and conservation of I/O. The distribution gives the expected
// number of point-to-point connections of each Manhattan length l (in gate
// pitches) in a placed network of N gates:
//
//	region 1 (1 ≤ l ≤ √N):    i(l) ∝ (l³/3 − 2√N·l² + 2N·l) · l^(2p−4)
//	region 2 (√N < l ≤ 2√N):  i(l) ∝ (1/3)·(2√N − l)³ · l^(2p−4)
//
// with p the Rent exponent. The model converts expected lengths into the
// per-fanout interconnect capacitance C_INT, resistance R_INT and
// time-of-flight used by the paper's energy and delay equations.
package wiring

import (
	"fmt"
	"math"
)

// Params sets the stochastic wiring model's technology and architecture
// parameters.
type Params struct {
	RentP     float64 // Rent exponent (≈0.6 for random logic)
	RentK     float64 // Rent coefficient (≈4)
	AvgFanout float64 // average fanout used in the distribution's α = f/(f+1)
	GatePitch float64 // distance between adjacent gate sites
	CPerLen   float64 // interconnect capacitance per length
	RPerLen   float64 // interconnect resistance (Ω = V/A) per length
	Velocity  float64 // signal propagation velocity on interconnect
}

// Default350 returns wiring parameters representative of a 0.35 µm-era
// aluminum/oxide interconnect stack and standard-cell fabric.
func Default350() Params {
	return Params{
		RentP:     0.6,
		RentK:     4.0,
		AvgFanout: 2.0,
		GatePitch: 5.25e-6, // 15 feature sizes at F = 0.35 µm
		CPerLen:   2.0e-10, // 0.2 fF/µm
		RPerLen:   1.0e5,   // 0.1 Ω/µm
		Velocity:  1.5e8,   // ~c/2 on-chip
	}
}

func (p Params) validate() error {
	switch {
	case p.RentP <= 0 || p.RentP >= 1:
		return fmt.Errorf("wiring: Rent exponent %v outside (0,1)", p.RentP)
	case p.RentK <= 0:
		return fmt.Errorf("wiring: Rent coefficient %v must be positive", p.RentK)
	case p.AvgFanout <= 0:
		return fmt.Errorf("wiring: average fanout %v must be positive", p.AvgFanout)
	case p.GatePitch <= 0:
		return fmt.Errorf("wiring: gate pitch %v must be positive", p.GatePitch)
	case p.CPerLen < 0 || p.RPerLen < 0:
		return fmt.Errorf("wiring: negative per-length C or R")
	case p.Velocity <= 0:
		return fmt.Errorf("wiring: velocity %v must be positive", p.Velocity)
	}
	return nil
}

// Model is the wiring estimate for one placed network of N gates. Every
// fanout branch carries the distribution's mean length.
type Model struct {
	P Params
	N int

	meanPitches float64 // expected point-to-point length in gate pitches

	// The mean branch's C_INT, R_INT and time of flight, derived from its
	// length once in New so that the accessors are loads.
	meanCap    float64
	meanRes    float64
	meanFlight float64
}

// New builds the wiring model for a network of n logic gates.
func New(p Params, n int) (*Model, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("wiring: gate count %d must be positive", n)
	}
	m := &Model{P: p, N: n}
	m.meanPitches = m.computeMean()
	l := m.BranchLength()
	m.meanCap, m.meanRes, m.meanFlight = l*p.CPerLen, l*p.RPerLen, l/p.Velocity
	return m, nil
}

// Density returns the (unnormalized) expected number of connections of
// length l gate pitches, the two-region Davis distribution. It is zero
// outside [1, 2√N].
func (m *Model) Density(l float64) float64 {
	sqN := math.Sqrt(float64(m.N))
	if l < 1 || l > 2*sqN {
		return 0
	}
	alpha := m.P.AvgFanout / (m.P.AvgFanout + 1)
	scale := alpha * m.P.RentK / 2
	pow := math.Pow(l, 2*m.P.RentP-4)
	if l <= sqN {
		return scale * (l*l*l/3 - 2*sqN*l*l + 2*float64(m.N)*l) * pow
	}
	d := 2*sqN - l
	return scale / 3 * d * d * d * pow
}

// computeMean integrates l·i(l) / i(l) over the discrete lengths 1..2√N.
func (m *Model) computeMean() float64 {
	lMax := int(math.Ceil(2 * math.Sqrt(float64(m.N))))
	var num, den float64
	for l := 1; l <= lMax; l++ {
		w := m.Density(float64(l))
		num += float64(l) * w
		den += w
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// BranchLength returns the expected length in meters of one fanout branch
// (one point-to-point connection of a net).
func (m *Model) BranchLength() float64 { return m.meanPitches * m.P.GatePitch }

// BranchCap returns C_INTij, the interconnect capacitance of one fanout
// branch (F): the mean branch's, which every net carries.
//
//cmosvet:hotpath
func (m *Model) BranchCap() float64 { return m.meanCap }

// BranchRes returns R_INTij, the interconnect resistance of one fanout
// branch (Ω = V/A); see BranchCap.
//
//cmosvet:hotpath
func (m *Model) BranchRes() float64 { return m.meanRes }

// FlightTime returns the time of flight over one fanout branch (s); see
// BranchCap.
//
//cmosvet:hotpath
func (m *Model) FlightTime() float64 { return m.meanFlight }

// DieEdge returns the edge length of the (square) placement region implied
// by the gate count and pitch (m).
func (m *Model) DieEdge() float64 { return math.Sqrt(float64(m.N)) * m.P.GatePitch }

// TotalWireEstimate returns the expected total routed wire length of the
// module (m), summing one branch per fanout connection: Σ_nets fanout·L̄ =
// E · L̄ where E is the number of point-to-point connections. This is the
// aggregate the Davis model was built to predict for wiring-layer planning.
func (m *Model) TotalWireEstimate(totalFanoutEdges int) float64 {
	if totalFanoutEdges < 0 {
		totalFanoutEdges = 0
	}
	return float64(totalFanoutEdges) * m.BranchLength()
}
