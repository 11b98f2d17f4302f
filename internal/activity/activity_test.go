package activity

import (
	"math"
	"testing"
	"testing/quick"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
)

func gate1(t *testing.T, typ circuit.GateType, nIn int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("g")
	ins := make([]int, nIn)
	for i := range ins {
		ins[i] = b.Input("in" + string(rune('a'+i)))
	}
	g := b.Gate(typ, "y", ins...)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func propUniform(t *testing.T, c *circuit.Circuit, p, d float64) *Profile {
	t.Helper()
	prof, err := PropagateUniform(c, p, d)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGateProbabilities(t *testing.T) {
	cases := []struct {
		typ  circuit.GateType
		nIn  int
		p    float64
		want float64
	}{
		{circuit.Buf, 1, 0.3, 0.3},
		{circuit.Not, 1, 0.3, 0.7},
		{circuit.And, 2, 0.5, 0.25},
		{circuit.Nand, 2, 0.5, 0.75},
		{circuit.And, 3, 0.5, 0.125},
		{circuit.Or, 2, 0.5, 0.75},
		{circuit.Nor, 2, 0.5, 0.25},
		{circuit.Or, 3, 0.2, 1 - 0.8*0.8*0.8},
		{circuit.Xor, 2, 0.5, 0.5},
		{circuit.Xor, 2, 0.3, 0.3*0.7 + 0.7*0.3},
		{circuit.Xnor, 2, 0.3, 1 - (0.3*0.7 + 0.7*0.3)},
		{circuit.Xor, 3, 0.5, 0.5},
	}
	for _, tc := range cases {
		c := gate1(t, tc.typ, tc.nIn)
		prof := propUniform(t, c, tc.p, 0.1)
		y := c.GateByName("y")
		if !approx(prof.Prob[y.ID], tc.want, 1e-12) {
			t.Errorf("%s/%d p=%v: prob = %v, want %v", tc.typ, tc.nIn, tc.p, prof.Prob[y.ID], tc.want)
		}
	}
}

func TestGateDensities(t *testing.T) {
	const d = 0.2
	cases := []struct {
		typ  circuit.GateType
		nIn  int
		p    float64
		want float64
	}{
		{circuit.Not, 1, 0.3, d},
		{circuit.Buf, 1, 0.3, d},
		// AND: ∂y/∂xi = other input → P = p, two terms.
		{circuit.And, 2, 0.5, 2 * 0.5 * d},
		{circuit.Nand, 2, 0.5, 2 * 0.5 * d},
		{circuit.And, 3, 0.5, 3 * 0.25 * d},
		// OR: P(∂) = (1-p) each.
		{circuit.Or, 2, 0.5, 2 * 0.5 * d},
		{circuit.Or, 2, 0.2, 2 * 0.8 * d},
		{circuit.Nor, 3, 0.2, 3 * 0.64 * d},
		// XOR: P(∂)=1 each.
		{circuit.Xor, 2, 0.5, 2 * d},
		{circuit.Xnor, 3, 0.9, 3 * d},
	}
	for _, tc := range cases {
		c := gate1(t, tc.typ, tc.nIn)
		prof := propUniform(t, c, tc.p, d)
		y := c.GateByName("y")
		if !approx(prof.Density[y.ID], tc.want, 1e-12) {
			t.Errorf("%s/%d p=%v: density = %v, want %v", tc.typ, tc.nIn, tc.p, prof.Density[y.ID], tc.want)
		}
	}
}

func TestPropagateChain(t *testing.T) {
	// Inverter chain: density is preserved, probability alternates.
	b := circuit.NewBuilder("chain")
	in := b.Input("in")
	g1 := b.Gate(circuit.Not, "g1", in)
	g2 := b.Gate(circuit.Not, "g2", g1)
	b.Output(g2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof := propUniform(t, c, 0.3, 0.15)
	if !approx(prof.Prob[g1], 0.7, 1e-12) || !approx(prof.Prob[g2], 0.3, 1e-12) {
		t.Errorf("chain probs = %v %v", prof.Prob[g1], prof.Prob[g2])
	}
	if !approx(prof.Density[g2], 0.15, 1e-12) {
		t.Errorf("chain density = %v, want 0.15", prof.Density[g2])
	}
}

func TestPropagateErrors(t *testing.T) {
	c := gate1(t, circuit.Nand, 2)
	if _, err := Propagate(c, nil); err == nil {
		t.Error("missing input specs accepted")
	}
	if _, err := PropagateUniform(c, 1.5, 0.1); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := PropagateUniform(c, 0.5, -1); err == nil {
		t.Error("negative density accepted")
	}
	if _, err := PropagateUniform(c, 0.9, 0.5); err == nil {
		t.Error("unrealizable density accepted (max 2·min(p,1-p))")
	}
	if _, err := PropagateUniform(c, math.NaN(), 0.1); err == nil {
		t.Error("NaN probability accepted")
	}
	if _, err := PropagateUniform(c, 0.5, math.NaN()); err == nil {
		t.Error("NaN density accepted")
	}
	seq, err := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PropagateUniform(seq, 0.5, 0.1); err == nil {
		t.Error("sequential circuit accepted")
	}
}

// Property: probabilities stay in [0,1] and densities stay non-negative and
// bounded by the sum of input densities times max sensitization, over random
// circuits and random input stats.
func TestPropagateBoundsProperty(t *testing.T) {
	f := func(seed int64, pRaw, dRaw float64) bool {
		p := math.Mod(math.Abs(pRaw), 1)
		dMax := 2 * min(p, 1-p)
		d := math.Mod(math.Abs(dRaw), 1) * dMax
		c, err := netgen.Generate(netgen.Config{Name: "prop", Gates: 60, Depth: 6, PIs: 5, POs: 4}, seed)
		if err != nil {
			return false
		}
		prof, err := PropagateUniform(c, p, d)
		if err != nil {
			return false
		}
		for i := range c.Gates {
			if prof.Prob[i] < -1e-12 || prof.Prob[i] > 1+1e-12 {
				return false
			}
			if prof.Density[i] < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestZeroDensityInputsGiveZeroActivity(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "z", Gates: 50, Depth: 5, PIs: 4, POs: 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	prof := propUniform(t, c, 0.5, 0)
	for i := range c.Gates {
		if prof.Density[i] != 0 {
			t.Fatalf("gate %d density %v with static inputs", i, prof.Density[i])
		}
	}
}
