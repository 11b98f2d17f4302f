package activity

import (
	"math"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
)

func TestEvalGateTruthTables(t *testing.T) {
	val := []bool{false, true}
	cases := []struct {
		typ   circuit.GateType
		fanin []int32
		want  bool
	}{
		{circuit.Buf, []int32{1}, true},
		{circuit.Not, []int32{1}, false},
		{circuit.And, []int32{0, 1}, false},
		{circuit.And, []int32{1, 1}, true},
		{circuit.Nand, []int32{1, 1}, false},
		{circuit.Or, []int32{0, 0}, false},
		{circuit.Or, []int32{0, 1}, true},
		{circuit.Nor, []int32{0, 0}, true},
		{circuit.Xor, []int32{0, 1}, true},
		{circuit.Xor, []int32{1, 1}, false},
		{circuit.Xnor, []int32{1, 1}, true},
	}
	for _, tc := range cases {
		if got := EvalGate(tc.typ, tc.fanin, val); got != tc.want {
			t.Errorf("%s%v = %v, want %v", tc.typ, tc.fanin, got, tc.want)
		}
	}
}

func TestMonteCarloInputStatistics(t *testing.T) {
	// The Markov input generator must reproduce the requested (p, d).
	b := circuit.NewBuilder("io")
	in := b.Input("in")
	g := b.Gate(circuit.Buf, "y", in)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := map[int]InputSpec{in: {Prob: 0.3, Density: 0.2}}
	prof, err := MonteCarlo(c, spec, 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prof.Prob[in]-0.3) > 0.01 {
		t.Errorf("MC input prob = %v, want 0.3", prof.Prob[in])
	}
	if math.Abs(prof.Density[in]-0.2) > 0.01 {
		t.Errorf("MC input density = %v, want 0.2", prof.Density[in])
	}
	// BUF must copy both.
	if math.Abs(prof.Prob[g]-prof.Prob[in]) > 1e-12 || math.Abs(prof.Density[g]-prof.Density[in]) > 1e-12 {
		t.Error("BUF did not copy input statistics")
	}
}

func TestMonteCarloAgreesWithAnalyticSingleGate(t *testing.T) {
	// With a low input density, simultaneous input switching is rare, so the
	// analytic propagation is near-exact (its error is O(d²): e.g. two inputs
	// of an XOR switching in the same cycle cancel in simulation but count
	// twice analytically).
	const d = 0.04
	for _, typ := range []circuit.GateType{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor} {
		b := circuit.NewBuilder("g")
		i1, i2 := b.Input("a"), b.Input("b")
		g := b.Gate(typ, "y", i1, i2)
		b.Output(g)
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ana, err := PropagateUniform(c, 0.5, d)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarlo(c, map[int]InputSpec{
			i1: {Prob: 0.5, Density: d},
			i2: {Prob: 0.5, Density: d},
		}, 400000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(mc.Prob[g]-ana.Prob[g]) / ana.Prob[g]; rel > 0.05 {
			t.Errorf("%s: MC prob %v vs analytic %v", typ, mc.Prob[g], ana.Prob[g])
		}
		if rel := math.Abs(mc.Density[g]-ana.Density[g]) / ana.Density[g]; rel > 0.08 {
			t.Errorf("%s: MC density %v vs analytic %v", typ, mc.Density[g], ana.Density[g])
		}
	}
}

func TestMonteCarloAgreesOnNetwork(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "net", Gates: 40, Depth: 5, PIs: 6, POs: 4}, 21)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := PropagateUniform(c, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[int]InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = InputSpec{Prob: 0.5, Density: 0.05}
	}
	mc, err := MonteCarlo(c, in, 120000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Compare aggregate activity: reconvergent fanout breaks independence on
	// individual nodes, but totals should agree within ~20 %.
	var anaTot, mcTot float64
	for i := range c.Gates {
		if c.Gates[i].IsLogic() {
			anaTot += ana.Density[i]
			mcTot += mc.Density[i]
		}
	}
	if anaTot <= 0 || mcTot <= 0 {
		t.Fatalf("degenerate totals: %v %v", anaTot, mcTot)
	}
	if r := anaTot / mcTot; r < 0.8 || r > 1.25 {
		t.Errorf("analytic/MC total activity ratio = %v (ana %v, mc %v)", r, anaTot, mcTot)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	b := circuit.NewBuilder("e")
	in := b.Input("in")
	g := b.Gate(circuit.Not, "y", in)
	b.Output(g)
	c, _ := b.Build()
	if _, err := MonteCarlo(c, nil, 100, 1); err == nil {
		t.Error("missing specs accepted")
	}
	if _, err := MonteCarlo(c, map[int]InputSpec{in: {Prob: 0.5, Density: 0.1}}, 1, 1); err == nil {
		t.Error("too few cycles accepted")
	}
}

func TestMonteCarloStuckInputs(t *testing.T) {
	b := circuit.NewBuilder("stuck")
	i1, i2 := b.Input("a"), b.Input("b")
	g := b.Gate(circuit.And, "y", i1, i2)
	b.Output(g)
	c, _ := b.Build()
	prof, err := MonteCarlo(c, map[int]InputSpec{
		i1: {Prob: 1, Density: 0},
		i2: {Prob: 0.5, Density: 0.3},
	}, 50000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Prob[i1] != 1 {
		t.Errorf("stuck-at-1 input prob = %v", prof.Prob[i1])
	}
	// AND with one input stuck at 1 behaves as BUF of the other.
	if math.Abs(prof.Density[g]-prof.Density[i2]) > 1e-12 {
		t.Errorf("AND density %v, want %v", prof.Density[g], prof.Density[i2])
	}
}
