// Package activity computes signal probabilities and switching activities for
// combinational networks. Internal-node activities use Najm's transition
// density propagation (DAC 1991, the paper's reference [8]):
//
//	D(y) = Σ_i P(∂y/∂x_i) · D(x_i)
//
// where ∂y/∂x_i is the Boolean difference of the gate function with respect
// to input i. Spatial independence of the gate inputs is assumed — the same
// first-order approximation the paper uses. Activities are expressed as
// expected transitions per clock cycle (the a_i of the paper's Eq. A2).
package activity

import (
	"fmt"

	"cmosopt/internal/circuit"
)

// InputSpec gives the stationary statistics of one primary input: the
// probability of being logic 1 and the expected transitions per cycle.
// Physically realizable specs satisfy 0 ≤ Density ≤ 2·min(Prob, 1−Prob).
type InputSpec struct {
	Prob    float64 //cmosvet:unit 1
	Density float64 //cmosvet:unit 1
}

// validate rejects specs outside the realizable region. The range checks
// are written so that NaN, which fails every comparison, fails them too.
func (s InputSpec) validate() error {
	if !(s.Prob >= 0 && s.Prob <= 1) {
		return fmt.Errorf("activity: probability %v outside [0,1]", s.Prob)
	}
	if !(s.Density >= 0) {
		return fmt.Errorf("activity: density %v is not a non-negative number", s.Density)
	}
	if lim := 2 * min(s.Prob, 1-s.Prob); s.Density > lim+1e-12 {
		return fmt.Errorf("activity: density %v unrealizable for probability %v (max %v)", s.Density, s.Prob, lim)
	}
	return nil
}

// Profile holds per-gate statistics, indexed by gate ID.
type Profile struct {
	Prob    []float64 // P(output = 1) //cmosvet:unit 1
	Density []float64 // expected output transitions per cycle (a_i) //cmosvet:unit 1
}

// Propagate computes the activity profile of a combinational circuit given
// the statistics of every primary input. The circuit must not contain DFFs
// (cut them with Combinational first).
func Propagate(c *circuit.Circuit, inputs map[int]InputSpec) (*Profile, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("activity: circuit %q is sequential; cut DFFs first", c.Name)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	p := &Profile{
		Prob:    make([]float64, c.N()),
		Density: make([]float64, c.N()),
	}
	for _, v := range cs.Order {
		id := int(v)
		g := c.Gate(id)
		if g.Type == circuit.Input {
			spec, ok := inputs[id]
			if !ok {
				return nil, fmt.Errorf("activity: no input spec for PI %q", g.Name)
			}
			if err := spec.validate(); err != nil {
				return nil, fmt.Errorf("PI %q: %w", g.Name, err)
			}
			p.Prob[id] = spec.Prob
			p.Density[id] = spec.Density
			continue
		}
		prob, dens, err := gateStats(g, p)
		if err != nil {
			return nil, fmt.Errorf("gate %q: %w", g.Name, err)
		}
		p.Prob[id] = prob
		p.Density[id] = dens
	}
	return p, nil
}

// PropagateUniform assigns the same statistics to every primary input; this
// is the configuration of the paper's Tables 1 and 2 ("activity levels are
// the same over all the inputs").
func PropagateUniform(c *circuit.Circuit, prob, density float64) (*Profile, error) {
	in := make(map[int]InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = InputSpec{Prob: prob, Density: density}
	}
	return Propagate(c, in)
}

// gateStats evaluates one gate's output probability and transition density
// from its fanin statistics.
func gateStats(g *circuit.Gate, p *Profile) (prob, dens float64, err error) {
	probs := make([]float64, len(g.Fanin))
	for i, f := range g.Fanin {
		probs[i] = p.Prob[f]
	}
	switch g.Type {
	case circuit.Buf, circuit.Not:
		prob = probs[0]
		if g.Type == circuit.Not {
			prob = 1 - prob
		}
		// ∂y/∂x = 1 for both.
		dens = p.Density[g.Fanin[0]]

	case circuit.And, circuit.Nand:
		prod := 1.0
		for _, q := range probs {
			prod *= q
		}
		prob = prod
		if g.Type == circuit.Nand {
			prob = 1 - prob
		}
		// ∂y/∂x_i = AND of the other inputs.
		for i, f := range g.Fanin {
			dens += exclProduct(probs, i) * p.Density[f]
		}

	case circuit.Or, circuit.Nor:
		prodZero := 1.0
		for _, q := range probs {
			prodZero *= 1 - q
		}
		prob = 1 - prodZero
		if g.Type == circuit.Nor {
			prob = prodZero
		}
		// ∂y/∂x_i = NOR of the other inputs.
		for i, f := range g.Fanin {
			q := 1.0
			for j, pj := range probs {
				if j != i {
					q *= 1 - pj
				}
			}
			dens += q * p.Density[f]
		}

	case circuit.Xor, circuit.Xnor:
		// P(x1 ⊕ x2 ⊕ …) folds pairwise; ∂y/∂x_i = 1 always.
		px := 0.0
		for _, q := range probs {
			px = px*(1-q) + q*(1-px)
		}
		prob = px
		if g.Type == circuit.Xnor {
			prob = 1 - prob
		}
		for _, f := range g.Fanin {
			dens += p.Density[f]
		}

	default:
		return 0, 0, fmt.Errorf("activity: unsupported gate type %s", g.Type)
	}
	return prob, dens, nil
}

// exclProduct returns Π_{j≠i} probs[j].
func exclProduct(probs []float64, i int) float64 {
	prod := 1.0
	for j, q := range probs {
		if j != i {
			prod *= q
		}
	}
	return prod
}

// Total returns the sum of logic-gate output densities — a single-number
// activity measure used in reports.
func (p *Profile) Total(c *circuit.Circuit) float64 {
	sum := 0.0
	for i := range c.Gates {
		if c.Gates[i].IsLogic() {
			sum += p.Density[i]
		}
	}
	return sum
}
