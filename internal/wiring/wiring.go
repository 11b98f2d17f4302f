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
	"math/rand"
	"sort"
)

// Params sets the stochastic wiring model's technology and architecture
// parameters.
type Params struct {
	RentP     float64 // Rent exponent (≈0.6 for random logic) //cmosvet:unit 1
	RentK     float64 // Rent coefficient (≈4) //cmosvet:unit 1
	AvgFanout float64 // average fanout used in the distribution's α = f/(f+1) //cmosvet:unit 1
	GatePitch float64 // distance between adjacent gate sites //cmosvet:unit m
	CPerLen   float64 // interconnect capacitance per length //cmosvet:unit F/m
	RPerLen   float64 // interconnect resistance (Ω = V/A) per length //cmosvet:unit V/A/m
	Velocity  float64 // signal propagation velocity on interconnect //cmosvet:unit m/s
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

// Model is the wiring estimate for one placed network of N gates.
//
// By default every fanout branch carries the distribution's mean length;
// SampleNets draws an individual length per driver net from the full Davis
// distribution instead, so wire-load variance (short local hops vs the long
// tail) reaches the delay and energy models.
type Model struct {
	P Params
	N int

	meanPitches float64   // expected point-to-point length in gate pitches //cmosvet:unit 1
	netPitches  []float64 // per-net sampled lengths (nil = use the mean) //cmosvet:unit 1

	// Each net's branch C_INT, R_INT and time of flight, derived from its
	// length once (derive) so that the per-net accessors are loads: for the
	// mean length, and per sampled net (nil while unsampled).
	meanCap    float64   //cmosvet:unit F
	meanRes    float64   //cmosvet:unit V/A
	meanFlight float64   //cmosvet:unit s
	netCap     []float64 //cmosvet:unit F
	netRes     []float64 //cmosvet:unit V/A
	netFlight  []float64 //cmosvet:unit s
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
	m.meanCap, m.meanRes, m.meanFlight = m.derive(m.meanPitches)
	return m, nil
}

// derive returns the branch C_INT, R_INT and time of flight of a net whose
// branches are the given number of pitches long: the length in meters times
// the per-length capacitance and resistance, and over the velocity.
//
//cmosvet:unit pitches 1
//cmosvet:unit return1 F
//cmosvet:unit return2 V/A
//cmosvet:unit return3 s
func (m *Model) derive(pitches float64) (c, r, flight float64) {
	l := pitches * m.P.GatePitch
	return l * m.P.CPerLen, l * m.P.RPerLen, l / m.P.Velocity
}

// Density returns the (unnormalized) expected number of connections of
// length l gate pitches, the two-region Davis distribution. It is zero
// outside [1, 2√N].
//
//cmosvet:unit l 1
//cmosvet:unit return 1
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
//
//cmosvet:unit return 1
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

// MeanPitches returns the expected point-to-point connection length in gate
// pitches.
//
//cmosvet:unit return 1
func (m *Model) MeanPitches() float64 { return m.meanPitches }

// SampleNets draws one length per driver net (indexed by the driving gate's
// ID, nNets entries) from the Davis distribution by inverse-CDF sampling,
// deterministically for a given seed. Subsequent *Net accessors use these
// lengths; the aggregate mean still converges to MeanPitches.
func (m *Model) SampleNets(nNets int, seed int64) {
	if nNets <= 0 {
		m.netPitches, m.netCap, m.netRes, m.netFlight = nil, nil, nil, nil
		return
	}
	// Discrete CDF over l = 1..2√N.
	lMax := int(math.Ceil(2 * math.Sqrt(float64(m.N))))
	cdf := make([]float64, lMax)
	sum := 0.0
	for l := 1; l <= lMax; l++ {
		sum += m.Density(float64(l))
		cdf[l-1] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	m.netPitches = make([]float64, nNets)
	m.netCap = make([]float64, nNets)
	m.netRes = make([]float64, nNets)
	m.netFlight = make([]float64, nNets)
	for i := range m.netPitches {
		u := rng.Float64() * sum
		idx := sort.SearchFloat64s(cdf, u)
		if idx >= lMax {
			idx = lMax - 1
		}
		m.netPitches[i] = float64(idx + 1)
		m.netCap[i], m.netRes[i], m.netFlight[i] = m.derive(m.netPitches[i])
	}
}

// pitchesOf returns the length in pitches of the net driven by gate id
// (mean when nets are not sampled or the id is out of range).
//
//cmosvet:unit return 1
func (m *Model) pitchesOf(id int) float64 {
	if m.netPitches == nil || id < 0 || id >= len(m.netPitches) {
		return m.meanPitches
	}
	return m.netPitches[id]
}

// BranchLength returns the expected length in meters of one fanout branch
// (one point-to-point connection of a net).
//
//cmosvet:unit return m
func (m *Model) BranchLength() float64 { return m.meanPitches * m.P.GatePitch }

// BranchLengthNet returns the branch length of the net driven by gate id,
// which differs per net after SampleNets.
//
//cmosvet:unit return m
func (m *Model) BranchLengthNet(id int) float64 { return m.pitchesOf(id) * m.P.GatePitch }

// NetLength returns the expected total routed length of a net with the given
// fanout, modeled as a star of point-to-point branches.
//
//cmosvet:unit return m
func (m *Model) NetLength(fanout int) float64 {
	if fanout < 1 {
		fanout = 1
	}
	return float64(fanout) * m.BranchLength()
}

// BranchCap returns C_INTij: the interconnect capacitance of one fanout
// branch (F).
//
//cmosvet:unit return F
func (m *Model) BranchCap() float64 { return m.meanCap }

// BranchCapNet is BranchCap for the net driven by gate id: a load of the
// value derived when the nets were sampled, the mean's when they were not
// or id is out of range.
//
//cmosvet:hotpath
//cmosvet:unit return F
func (m *Model) BranchCapNet(id int) float64 {
	if uint(id) < uint(len(m.netCap)) {
		return m.netCap[id]
	}
	return m.meanCap
}

// BranchRes returns R_INTij: the interconnect resistance of one fanout
// branch (Ω = V/A).
//
//cmosvet:unit return V/A
func (m *Model) BranchRes() float64 { return m.meanRes }

// BranchResNet is BranchRes for the net driven by gate id; see BranchCapNet.
//
//cmosvet:hotpath
//cmosvet:unit return V/A
func (m *Model) BranchResNet(id int) float64 {
	if uint(id) < uint(len(m.netRes)) {
		return m.netRes[id]
	}
	return m.meanRes
}

// FlightTime returns the time-of-flight over one fanout branch (s).
//
//cmosvet:unit return s
func (m *Model) FlightTime() float64 { return m.meanFlight }

// FlightTimeNet is FlightTime for the net driven by gate id; see
// BranchCapNet.
//
//cmosvet:hotpath
//cmosvet:unit return s
func (m *Model) FlightTimeNet(id int) float64 {
	if uint(id) < uint(len(m.netFlight)) {
		return m.netFlight[id]
	}
	return m.meanFlight
}

// RCDelay returns the distributed RC delay of one fanout branch (s), using
// the 0.5·R·C distributed-line factor: (V/A)·F composes to s.
//
//cmosvet:unit return s
func (m *Model) RCDelay() float64 { return 0.5 * m.BranchRes() * m.BranchCap() }

// DieEdge returns the edge length of the (square) placement region implied
// by the gate count and pitch (m).
//
//cmosvet:unit return m
func (m *Model) DieEdge() float64 { return math.Sqrt(float64(m.N)) * m.P.GatePitch }

// TotalWireEstimate returns the expected total routed wire length of the
// module (m), summing one branch per fanout connection: Σ_nets fanout·L̄ =
// E · L̄ where E is the number of point-to-point connections. This is the
// aggregate the Davis model was built to predict for wiring-layer planning.
//
//cmosvet:unit return m
func (m *Model) TotalWireEstimate(totalFanoutEdges int) float64 {
	if totalFanoutEdges < 0 {
		totalFanoutEdges = 0
	}
	return float64(totalFanoutEdges) * m.BranchLength()
}
