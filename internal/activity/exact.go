package activity

import (
	"fmt"

	"cmosopt/internal/circuit"
)

// MaxExactInputs bounds the exhaustive enumeration in ExactProbabilities.
const MaxExactInputs = 20

// ExactProbabilities computes exact signal probabilities by weighted
// enumeration over all primary-input assignments — exponential in the input
// count, so limited to MaxExactInputs. It is the reference the first-order
// Najm propagation (which assumes spatially independent fanins, see the
// paper's §4.1 and its pointer to Stamoulis–Hajj [11] for correlation-aware
// methods) is measured against: on trees the two agree exactly; reconvergent
// fanout is where they diverge.
func ExactProbabilities(c *circuit.Circuit, inputs map[int]InputSpec) ([]float64, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("activity: circuit %q is sequential; cut DFFs first", c.Name)
	}
	n := len(c.PIs)
	if n > MaxExactInputs {
		return nil, fmt.Errorf("activity: %d inputs exceed the exact-enumeration limit %d", n, MaxExactInputs)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	pIn := make([]float64, n)
	for i, id := range c.PIs {
		spec, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("activity: no input spec for PI %q", c.Gate(id).Name)
		}
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("PI %q: %w", c.Gate(id).Name, err)
		}
		pIn[i] = spec.Prob
	}

	probs := make([]float64, c.N())
	val := make([]bool, c.N())
	for mask := 0; mask < 1<<n; mask++ {
		weight := 1.0
		for i, id := range c.PIs {
			on := mask&(1<<i) != 0
			val[id] = on
			if on {
				weight *= pIn[i]
			} else {
				weight *= 1 - pIn[i]
			}
		}
		if weight == 0 {
			continue
		}
		for _, id := range cs.Order {
			g := &c.Gates[id]
			if g.Type == circuit.Input {
				continue
			}
			val[id] = EvalGate(g.Type, g.Fanin, val)
		}
		for id, v := range val {
			if v {
				probs[id] += weight
			}
		}
	}
	return probs, nil
}

// ExactProbabilitiesUniform applies the same probability to every input.
func ExactProbabilitiesUniform(c *circuit.Circuit, prob float64) ([]float64, error) {
	in := make(map[int]InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = InputSpec{Prob: prob}
	}
	return ExactProbabilities(c, in)
}
