package circuit

import "testing"

func TestGateTypeString(t *testing.T) {
	cases := []struct {
		t    GateType
		want string
	}{
		{Input, "INPUT"}, {Buf, "BUFF"}, {Not, "NOT"}, {And, "AND"},
		{Nand, "NAND"}, {Or, "OR"}, {Nor, "NOR"}, {Xor, "XOR"},
		{Xnor, "XNOR"}, {DFF, "DFF"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.t, got, c.want)
		}
	}
	if got := GateType(200).String(); got != "GateType(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestGateTypeValid(t *testing.T) {
	for gt := Input; gt < numGateTypes; gt++ {
		if !gt.Valid() {
			t.Errorf("%s.Valid() = false", gt)
		}
	}
	if GateType(numGateTypes).Valid() {
		t.Error("numGateTypes should be invalid")
	}
}

func TestGateTypeInverting(t *testing.T) {
	inverting := map[GateType]bool{
		Not: true, Nand: true, Nor: true, Xnor: true,
		Buf: false, And: false, Or: false, Xor: false, Input: false, DFF: false,
	}
	for gt, want := range inverting {
		if got := gt.Inverting(); got != want {
			t.Errorf("%s.Inverting() = %v, want %v", gt, got, want)
		}
	}
}

func TestGateTypeFaninBounds(t *testing.T) {
	cases := []struct {
		t        GateType
		min, max int
	}{
		{Input, 0, 0}, {Buf, 1, 1}, {Not, 1, 1}, {DFF, 1, 1},
		{And, 2, -1}, {Nand, 2, -1}, {Or, 2, -1}, {Nor, 2, -1},
		{Xor, 2, -1}, {Xnor, 2, -1},
	}
	for _, c := range cases {
		if got := c.t.MinFanin(); got != c.min {
			t.Errorf("%s.MinFanin() = %d, want %d", c.t, got, c.min)
		}
		if got := c.t.MaxFanin(); got != c.max {
			t.Errorf("%s.MaxFanin() = %d, want %d", c.t, got, c.max)
		}
	}
}

func TestGateIsLogic(t *testing.T) {
	g := Gate{Type: Nand}
	if !g.IsLogic() {
		t.Error("NAND should be logic")
	}
	for _, typ := range []GateType{Input, DFF} {
		g := Gate{Type: typ}
		if g.IsLogic() {
			t.Errorf("%s should not be logic", typ)
		}
	}
}

func TestGateFaninFanoutCounts(t *testing.T) {
	b := NewBuilder("counts")
	g := b.Gate(And, "g", b.Input("a"), b.Input("b"), b.Input("c"))
	b.Output(b.Gate(Not, "y", g))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Gates[g].NumFanin(); n != 3 {
		t.Errorf("NumFanin = %d, want 3", n)
	}
	if n := c.csr.NumFanout(int32(g)); n != 1 {
		t.Errorf("NumFanout = %d, want 1", n)
	}
}
