package activity

import (
	"math"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
)

// uniformProb gives every primary input of c signal probability prob.
func uniformProb(c *circuit.Circuit, prob float64) map[int]InputSpec {
	in := make(map[int]InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = InputSpec{Prob: prob}
	}
	return in
}

func TestCorrelatedMatchesIndependentOnTrees(t *testing.T) {
	c, err := circuit.ParseBenchString("tree", `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
g1 = NAND(a, b)
g2 = NOR(c, d)
y = AND(g1, g2)
`)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := CorrelatedProbabilities(c, uniformProb(c, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	indep, err := PropagateUniform(c, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if math.Abs(corr.Prob[i]-indep.Prob[i]) > 1e-9 {
			t.Errorf("gate %d: corr %v vs indep %v (trees must agree)", i, corr.Prob[i], indep.Prob[i])
		}
	}
}

func TestCorrelatedHandlesHardReconvergence(t *testing.T) {
	// y = AND(a, NOT a) is identically 0. The independence method says 0.25
	// at p = 0.5; the correlation method gets it exactly.
	b := circuit.NewBuilder("rc")
	a := b.Input("a")
	na := b.Gate(circuit.Not, "na", a)
	y := b.Gate(circuit.And, "y", a, na)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	corr, err := CorrelatedProbabilities(c, uniformProb(c, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if corr.Prob[y] > 1e-9 {
		t.Errorf("P(a AND NOT a) = %v, want 0", corr.Prob[y])
	}
	// And y = OR(a, NOT a) is identically 1.
	b2 := circuit.NewBuilder("rc2")
	a2 := b2.Input("a")
	na2 := b2.Gate(circuit.Not, "na", a2)
	y2 := b2.Gate(circuit.Or, "y", a2, na2)
	b2.Output(y2)
	c2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	corr2, err := CorrelatedProbabilities(c2, uniformProb(c2, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr2.Prob[y2]-1) > 1e-9 {
		t.Errorf("P(a OR NOT a) = %v, want 1", corr2.Prob[y2])
	}
}

func TestCorrelatedBeatsIndependenceOnRandomCircuits(t *testing.T) {
	// Against exact enumeration, the correlation-aware probabilities must be
	// at least as accurate (in worst gate error) as the independence ones,
	// averaged over a handful of reconvergent random circuits.
	var corrWorse int
	const trials = 6
	for seed := int64(1); seed <= trials; seed++ {
		c, err := netgen.Generate(netgen.Config{Name: "r", Gates: 25, Depth: 5, PIs: 5, POs: 3, MaxFan: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactProbabilitiesUniform(c, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		indep, err := PropagateUniform(c, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		corr, err := CorrelatedProbabilities(c, uniformProb(c, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		var eInd, eCorr float64
		for i := range c.Gates {
			if d := math.Abs(indep.Prob[i] - exact[i]); d > eInd {
				eInd = d
			}
			if d := math.Abs(corr.Prob[i] - exact[i]); d > eCorr {
				eCorr = d
			}
		}
		if eCorr > eInd+1e-9 {
			corrWorse++
		}
		t.Logf("seed %d: independence err %.4f, correlation err %.4f", seed, eInd, eCorr)
	}
	if corrWorse > trials/3 {
		t.Errorf("correlation method worse than independence on %d/%d circuits", corrWorse, trials)
	}
}

func TestCorrelatedProbabilityBounds(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "b", Gates: 50, Depth: 6, PIs: 6, POs: 4}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		corr, err := CorrelatedProbabilities(c, uniformProb(c, p))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range corr.Prob {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("p=%v gate %d probability %v outside [0,1]", p, i, v)
			}
		}
	}
}

func TestCorrelatedErrors(t *testing.T) {
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if _, err := CorrelatedProbabilities(seq, uniformProb(seq, 0.5)); err == nil {
		t.Error("sequential circuit accepted")
	}
	c := gate1(t, circuit.Nand, 2)
	if _, err := CorrelatedProbabilities(c, nil); err == nil {
		t.Error("missing specs accepted")
	}
}

func TestCorrelatedDensityMatchesNajmOnTrees(t *testing.T) {
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
	in := map[int]InputSpec{}
	for _, id := range c.PIs {
		in[id] = InputSpec{Prob: 0.3, Density: 0.2}
	}
	corr, err := CorrelatedProbabilities(c, in)
	if err != nil {
		t.Fatal(err)
	}
	najm, err := Propagate(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if math.Abs(corr.Density[i]-najm.Density[i]) > 1e-9 {
			t.Errorf("gate %d: corr density %v vs najm %v (trees must agree)",
				i, corr.Density[i], najm.Density[i])
		}
	}
}

func TestCorrelatedDensityUsesCorrectedSensitization(t *testing.T) {
	// m = AND(a, NOT a) is constant 0, so y = AND(b, m) is never sensitized
	// to b. The correlated engine knows P(m) = 0 and drops that term; the
	// independence method charges P(m) = 0.25 worth of b-transitions.
	bld := circuit.NewBuilder("rc")
	a := bld.Input("a")
	b := bld.Input("b")
	na := bld.Gate(circuit.Not, "na", a)
	m := bld.Gate(circuit.And, "m", a, na)
	y := bld.Gate(circuit.And, "y", b, m)
	bld.Output(y)
	c, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]InputSpec{
		a: {Prob: 0.5, Density: 0.3},
		b: {Prob: 0.5, Density: 0.3},
	}
	corr, err := CorrelatedProbabilities(c, in)
	if err != nil {
		t.Fatal(err)
	}
	najm, err := Propagate(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if corr.Density[y] >= najm.Density[y] {
		t.Errorf("correlated density %v not below independence %v", corr.Density[y], najm.Density[y])
	}
}

func TestCorrelatedDensityBounds(t *testing.T) {
	// Densities stay non-negative and below the sum of input densities
	// scaled by the worst-case path multiplicity on random circuits.
	for seed := int64(1); seed <= 5; seed++ {
		c, err := netgen.Generate(netgen.Config{Name: "cd", Gates: 40, Depth: 5, PIs: 6, POs: 4, MaxFan: 2}, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := map[int]InputSpec{}
		for _, id := range c.PIs {
			in[id] = InputSpec{Prob: 0.5, Density: 0.1}
		}
		corr, err := CorrelatedProbabilities(c, in)
		if err != nil {
			t.Fatal(err)
		}
		najm, err := Propagate(c, in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Gates {
			if corr.Density[i] < -1e-12 {
				t.Fatalf("seed %d: negative density %v", seed, corr.Density[i])
			}
			// The corrected sensitization probabilities are clamped to their
			// feasible range, so per-gate densities stay within a factor of
			// the independence figure (both reduce to it on trees).
			if najm.Density[i] > 1e-9 && corr.Density[i] > 4*najm.Density[i] {
				t.Fatalf("seed %d gate %d: corr density %v implausibly above najm %v",
					seed, i, corr.Density[i], najm.Density[i])
			}
		}
	}
}
