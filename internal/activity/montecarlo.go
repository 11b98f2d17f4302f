package activity

import (
	"fmt"
	"math/rand"

	"cmosopt/internal/circuit"
)

// MonteCarlo estimates the activity profile by logic simulation: each primary
// input is driven by a stationary two-state Markov chain matching its
// InputSpec, the network is evaluated zero-delay each cycle, and output
// transitions are counted. It validates the analytic propagation (which is
// exact when inputs switch one at a time and fanins are independent).
func MonteCarlo(c *circuit.Circuit, inputs map[int]InputSpec, cycles int, seed int64) (*Profile, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("activity: circuit %q is sequential; cut DFFs first", c.Name)
	}
	if cycles < 2 {
		return nil, fmt.Errorf("activity: need at least 2 cycles, got %d", cycles)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	// Markov chain rates: P(0→1)=α, P(1→0)=β with α = d/(2(1−p)),
	// β = d/(2p), giving stationary probability p and transition rate d.
	alpha := make([]float64, c.N())
	beta := make([]float64, c.N())
	for _, id := range c.PIs {
		spec, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("activity: no input spec for PI %q", c.Gate(id).Name)
		}
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("PI %q: %w", c.Gate(id).Name, err)
		}
		switch {
		case spec.Prob <= 0 || spec.Prob >= 1:
			alpha[id], beta[id] = 0, 0 // input stuck at 0 or 1
		default:
			alpha[id] = spec.Density / (2 * (1 - spec.Prob))
			beta[id] = spec.Density / (2 * spec.Prob)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	val := make([]bool, c.N())
	prev := make([]bool, c.N())
	ones := make([]int, c.N())
	trans := make([]int, c.N())

	// Initialize inputs from the stationary distribution.
	for _, id := range c.PIs {
		val[id] = rng.Float64() < inputs[id].Prob
	}
	evalAll(c, cs.Order, val)
	copy(prev, val)

	for cy := 0; cy < cycles; cy++ {
		for _, id := range c.PIs {
			if val[id] {
				if rng.Float64() < beta[id] {
					val[id] = false
				}
			} else if rng.Float64() < alpha[id] {
				val[id] = true
			}
		}
		evalAll(c, cs.Order, val)
		for i := range val {
			if val[i] {
				ones[i]++
			}
			if val[i] != prev[i] {
				trans[i]++
			}
		}
		copy(prev, val)
	}

	p := &Profile{Prob: make([]float64, c.N()), Density: make([]float64, c.N())}
	for i := range val {
		p.Prob[i] = float64(ones[i]) / float64(cycles)
		p.Density[i] = float64(trans[i]) / float64(cycles)
	}
	return p, nil
}

// evalAll evaluates every logic gate's output in topological order.
func evalAll(c *circuit.Circuit, order []int32, val []bool) {
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			continue
		}
		val[id] = EvalGate(g.Type, g.Fanin, val)
	}
}

// EvalGate computes a single gate's Boolean output given fanin values.
func EvalGate(t circuit.GateType, fanin []int32, val []bool) bool {
	switch t {
	case circuit.Buf:
		return val[fanin[0]]
	case circuit.Not:
		return !val[fanin[0]]
	case circuit.And, circuit.Nand:
		out := true
		for _, f := range fanin {
			out = out && val[f]
		}
		if t == circuit.Nand {
			out = !out
		}
		return out
	case circuit.Or, circuit.Nor:
		out := false
		for _, f := range fanin {
			out = out || val[f]
		}
		if t == circuit.Nor {
			out = !out
		}
		return out
	case circuit.Xor, circuit.Xnor:
		out := false
		for _, f := range fanin {
			out = out != val[f]
		}
		if t == circuit.Xnor {
			out = !out
		}
		return out
	}
	panic(fmt.Sprintf("activity: EvalGate on %s", t))
}
