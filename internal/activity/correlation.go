package activity

import (
	"fmt"

	"cmosopt/internal/circuit"
)

// Correlation-coefficient signal-probability propagation, after the method
// of Ercolani et al. that the Stamoulis–Hajj line of work (the paper's
// reference [11] for handling signal correlations) builds on. Where the
// first-order Najm propagation assumes every pair of fanins independent,
// this engine tracks a pairwise correlation coefficient
//
//	C(x, y) = P(x ∧ y) / (P(x)·P(y))
//
// between every pair of signals, propagating it through each gate with
// first-order composition rules. Reconvergent fanout — the whole error
// source of the independence assumption — is captured exactly for one
// reconvergence level and approximately beyond.
//
// Gates are decomposed into AND/NOT primitives (OR by De Morgan, XOR by its
// sum-of-products form), so only two composition rules are needed:
//
//	AND:  P(y) = P(a)·P(b)·C(a,b),  C(y,w) ≈ C(a,w)·C(b,w)
//	NOT:  P(y) = 1 − P(a),          C(y,w) = (1 − P(a)·C(a,w))/(1 − P(a))
//
// CorrelationProfile holds the result for the circuit's visible gates. The
// densities use Najm's Boolean-difference formula with the sensitization
// probabilities P(∂y/∂x_i) evaluated on the correlated engine rather than
// under independence.
type CorrelationProfile struct {
	Prob    []float64 // P(output = 1), correlation-aware, per gate ID //cmosvet:unit 1
	Density []float64 // transitions per cycle, correlation-aware //cmosvet:unit 1
}

// corrEngine carries the growing signal set: visible gates plus the virtual
// primitives created by gate decomposition.
type corrEngine struct {
	prob []float64
	// corr[i][j] for j < i: correlation coefficient between signals i and j.
	corr [][]float64
}

func (e *corrEngine) n() int { return len(e.prob) }

func (e *corrEngine) c(i, j int) float64 {
	if i == j {
		// C(x,x) = P(x∧x)/P(x)² = 1/P(x).
		if e.prob[i] <= 0 {
			return 1
		}
		return 1 / e.prob[i]
	}
	if j > i {
		i, j = j, i
	}
	return e.corr[i][j]
}

// addLeaf introduces an independent signal (a primary input).
func (e *corrEngine) addLeaf(p float64) int {
	id := e.n()
	row := make([]float64, id)
	for j := range row {
		row[j] = 1 // independent of everything before it
	}
	e.prob = append(e.prob, p)
	e.corr = append(e.corr, row)
	return id
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clampCorr keeps a coefficient within its feasibility bounds given the two
// probabilities: max(0, (pa+pb−1)/(pa·pb)) ≤ C ≤ min(1/pa, 1/pb).
func clampCorr(cv, pa, pb float64) float64 {
	if pa <= 0 || pb <= 0 {
		return 1
	}
	lo := (pa + pb - 1) / (pa * pb)
	if lo < 0 {
		lo = 0
	}
	hi := 1 / pa
	if h2 := 1 / pb; h2 < hi {
		hi = h2
	}
	if cv < lo {
		return lo
	}
	if cv > hi {
		return hi
	}
	return cv
}

// addNot introduces y = ¬a.
func (e *corrEngine) addNot(a int) int {
	id := e.n()
	pa := e.prob[a]
	py := clamp01(1 - pa)
	row := make([]float64, id)
	for w := 0; w < id; w++ {
		pw := e.prob[w]
		var cv float64
		switch {
		case py <= 0 || pw <= 0:
			cv = 1
		default:
			// P(¬a ∧ w) = P(w) − P(a ∧ w).
			cv = (pw - pa*pw*e.c(a, w)) / (py * pw)
		}
		row[w] = clampCorr(cv, py, pw)
	}
	e.prob = append(e.prob, py)
	e.corr = append(e.corr, row)
	return id
}

// addAnd introduces y = a ∧ b.
func (e *corrEngine) addAnd(a, b int) int {
	id := e.n()
	pa, pb := e.prob[a], e.prob[b]
	py := clamp01(pa * pb * e.c(a, b))
	row := make([]float64, id)
	for w := 0; w < id; w++ {
		cv := e.c(a, w) * e.c(b, w)
		row[w] = clampCorr(cv, py, e.prob[w])
	}
	e.prob = append(e.prob, py)
	e.corr = append(e.corr, row)
	return id
}

// addOr introduces y = a ∨ b via De Morgan.
func (e *corrEngine) addOr(a, b int) int {
	return e.addNot(e.addAnd(e.addNot(a), e.addNot(b)))
}

// CorrelatedProbabilities computes correlation-aware signal probabilities
// for a combinational circuit. Memory is O(S²) in the total signal count
// (visible gates plus decomposition primitives), so it is intended for
// module-sized networks — exactly the scale of the paper's benchmarks.
func CorrelatedProbabilities(c *circuit.Circuit, inputs map[int]InputSpec) (*CorrelationProfile, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("activity: circuit %q is sequential; cut DFFs first", c.Name)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	e := &corrEngine{}
	sig := make([]int, c.N()) // gate ID -> engine signal
	dens := make([]float64, c.N())
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
			sig[id] = e.addLeaf(spec.Prob)
			dens[id] = spec.Density
			continue
		}
		fan := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fan[i] = sig[f]
		}
		switch g.Type {
		case circuit.Buf:
			sig[id] = fan[0]
		case circuit.Not:
			sig[id] = e.addNot(fan[0])
		case circuit.And, circuit.Nand:
			cur := fan[0]
			for _, x := range fan[1:] {
				cur = e.addAnd(cur, x)
			}
			if g.Type == circuit.Nand {
				cur = e.addNot(cur)
			}
			sig[id] = cur
		case circuit.Or, circuit.Nor:
			cur := fan[0]
			for _, x := range fan[1:] {
				cur = e.addOr(cur, x)
			}
			if g.Type == circuit.Nor {
				cur = e.addNot(cur)
			}
			sig[id] = cur
		case circuit.Xor, circuit.Xnor:
			// a ⊕ b = (a ∧ ¬b) ∨ (¬a ∧ b), folded pairwise.
			cur := fan[0]
			for _, x := range fan[1:] {
				left := e.addAnd(cur, e.addNot(x))
				right := e.addAnd(e.addNot(cur), x)
				cur = e.addOr(left, right)
			}
			if g.Type == circuit.Xnor {
				cur = e.addNot(cur)
			}
			sig[id] = cur
		default:
			return nil, fmt.Errorf("activity: unsupported gate type %s", g.Type)
		}

		// Correlation-aware transition density: Najm's formula with the
		// Boolean-difference probabilities read off the correlated engine.
		d := 0.0
		switch g.Type {
		case circuit.Buf, circuit.Not, circuit.Xor, circuit.Xnor:
			// ∂y/∂x_i = 1 for these.
			for _, f := range g.Fanin {
				d += dens[f]
			}
		case circuit.And, circuit.Nand:
			// ∂y/∂x_i = AND of the other fanins.
			for i, f := range g.Fanin {
				d += e.probOfAnd(excluding(g.Fanin, i), sig) * dens[f]
			}
		case circuit.Or, circuit.Nor:
			// ∂y/∂x_i = NOR of the other fanins: AND of their complements.
			for i, f := range g.Fanin {
				d += e.probOfAndNot(excluding(g.Fanin, i), sig) * dens[f]
			}
		}
		dens[id] = d
	}
	out := &CorrelationProfile{Prob: make([]float64, c.N()), Density: dens}
	for id := range sig {
		out.Prob[id] = e.prob[sig[id]]
	}
	return out, nil
}

func excluding(fanin []int32, i int) []int32 {
	out := make([]int32, 0, len(fanin)-1)
	for j, f := range fanin {
		if j != i {
			out = append(out, f)
		}
	}
	return out
}

// probOfAnd returns P(∧ gates) on the correlated engine (1 for an empty set).
func (e *corrEngine) probOfAnd(gateIDs []int32, sig []int) float64 {
	if len(gateIDs) == 0 {
		return 1
	}
	cur := sig[gateIDs[0]]
	for _, g := range gateIDs[1:] {
		cur = e.addAnd(cur, sig[g])
	}
	return e.prob[cur]
}

// probOfAndNot returns P(∧ ¬gates) on the correlated engine.
func (e *corrEngine) probOfAndNot(gateIDs []int32, sig []int) float64 {
	if len(gateIDs) == 0 {
		return 1
	}
	cur := e.addNot(sig[gateIDs[0]])
	for _, g := range gateIDs[1:] {
		cur = e.addAnd(cur, e.addNot(sig[g]))
	}
	return e.prob[cur]
}
