package activity

import (
	"math"
	"strings"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
)

// ReconvergenceError returns the maximum absolute difference between the
// first-order propagated probabilities and the exact ones — a direct measure
// of how much the independence approximation costs on a given circuit.
func ReconvergenceError(c *circuit.Circuit, prob float64) (float64, error) {
	exact, err := ExactProbabilitiesUniform(c, prob)
	if err != nil {
		return 0, err
	}
	approx, err := PropagateUniform(c, prob, 0)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i := range exact {
		d := exact[i] - approx.Prob[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

func TestExactMatchesHandComputation(t *testing.T) {
	// y = NAND(a, b) at p=0.5: P(y)=0.75. Exact == closed form.
	b := circuit.NewBuilder("g")
	a1, a2 := b.Input("a"), b.Input("b")
	y := b.Gate(circuit.Nand, "y", a1, a2)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	probs, err := ExactProbabilitiesUniform(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[y]-0.75) > 1e-12 {
		t.Errorf("P(NAND) = %v, want 0.75", probs[y])
	}
}

func TestExactAgreesWithNajmOnTrees(t *testing.T) {
	// Fanout-free (tree) circuits have independent fanins everywhere, so the
	// first-order propagation is exact.
	c, err := circuit.ParseBenchString("tree", `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
g1 = AND(a, b)
g2 = NOR(c, d)
y = XOR(g1, g2)
`)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := ReconvergenceError(c, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-12 {
		t.Errorf("tree circuit shows reconvergence error %v", worst)
	}
}

func TestExactExposesReconvergenceError(t *testing.T) {
	// y = AND(a, NOT a) is constant 0, but independence-based propagation
	// reports p·(1−p) = 0.25 at p = 0.5.
	b := circuit.NewBuilder("rc")
	a := b.Input("a")
	na := b.Gate(circuit.Not, "na", a)
	y := b.Gate(circuit.And, "y", a, na)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbabilitiesUniform(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if exact[y] != 0 {
		t.Errorf("exact P(a AND NOT a) = %v, want 0", exact[y])
	}
	worst, err := ReconvergenceError(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(worst-0.25) > 1e-12 {
		t.Errorf("reconvergence error = %v, want 0.25", worst)
	}
}

func TestExactBoundsOnRealCircuit(t *testing.T) {
	// c17 has 5 inputs: cheap to enumerate. All probabilities in [0,1] and
	// the first-order approximation stays within a moderate bound.
	c, err := circuit.ParseBenchString("c17", `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(o1)
OUTPUT(o2)
n1 = NAND(a, c)
n2 = NAND(c, d)
n3 = NAND(b, n2)
n4 = NAND(n2, e)
o1 = NAND(n1, n3)
o2 = NAND(n3, n4)
`)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbabilitiesUniform(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range exact {
		if p < 0 || p > 1 {
			t.Fatalf("gate %d exact prob %v outside [0,1]", i, p)
		}
	}
	worst, err := ReconvergenceError(c, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0.2 {
		t.Errorf("c17 reconvergence error %v implausibly large", worst)
	}
}

func TestExactWeightedInputs(t *testing.T) {
	// Asymmetric input probabilities: P(AND) = pa·pb exactly.
	b := circuit.NewBuilder("w")
	a1, a2 := b.Input("a"), b.Input("b")
	y := b.Gate(circuit.And, "y", a1, a2)
	b.Output(y)
	c, _ := b.Build()
	probs, err := ExactProbabilities(c, map[int]InputSpec{
		a1: {Prob: 0.9},
		a2: {Prob: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(probs[y]-0.18) > 1e-12 {
		t.Errorf("P = %v, want 0.18", probs[y])
	}
}

func TestExactRejects(t *testing.T) {
	big, err := netgen.Generate(netgen.Config{Name: "big", Gates: 60, Depth: 5, PIs: MaxExactInputs + 1, POs: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactProbabilitiesUniform(big, 0.5); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("oversized circuit accepted: %v", err)
	}
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if _, err := ExactProbabilitiesUniform(seq, 0.5); err == nil {
		t.Error("sequential circuit accepted")
	}
	small := gate1(t, circuit.Not, 1)
	if _, err := ExactProbabilities(small, nil); err == nil {
		t.Error("missing input specs accepted")
	}
}
