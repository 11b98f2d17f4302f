package circuit

import (
	"math/rand"
	"testing"
)

// chain builds in0 -> NOT g1 -> NOT g2 -> ... -> NOT gn (PO).
func chain(t *testing.T, n int) *Circuit {
	t.Helper()
	b := NewBuilder("chain")
	prev := b.Input("in0")
	for i := 1; i <= n; i++ {
		prev = b.Gate(Not, "g"+itoa(i), prev)
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("chain build: %v", err)
	}
	return c
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// diamond builds a reconvergent circuit:
//
//	a ─┬─ NOT n1 ─┐
//	   └─ NOT n2 ─┴ NAND out (PO)
func diamond(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("diamond")
	a := b.Input("a")
	n1 := b.Gate(Not, "n1", a)
	n2 := b.Gate(Not, "n2", a)
	out := b.Gate(Nand, "out", n1, n2)
	b.Output(out)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("diamond build: %v", err)
	}
	return c
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := diamond(t)
	s, err := c.CSR()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(s.Order))
	for i, id := range s.Order {
		pos[id] = i
	}
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if pos[f] >= pos[i] {
				t.Errorf("fanin %d of gate %d not earlier in topo order", f, i)
			}
		}
	}
}

func TestTopoOrderCached(t *testing.T) {
	c := diamond(t)
	s1, _ := c.CSR()
	s2, _ := c.CSR()
	if s1 != s2 || &s1.Order[0] != &s2.Order[0] {
		t.Error("CSR should return the order stored at construction")
	}
}

func TestLevelsAndDepth(t *testing.T) {
	c := chain(t, 5)
	s, err := c.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if lv := s.Level[c.PIs[0]]; lv != 0 {
		t.Errorf("input level = %d, want 0", lv)
	}
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("Depth = %d, want 5", d)
	}
}

func TestDepthDiamond(t *testing.T) {
	c := diamond(t)
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("Depth = %d, want 2", d)
	}
}

func TestNAndNumLogic(t *testing.T) {
	c := diamond(t)
	if c.N() != 4 {
		t.Errorf("N = %d, want 4", c.N())
	}
	if c.NumLogic() != 3 {
		t.Errorf("NumLogic = %d, want 3", c.NumLogic())
	}
}

func TestGateByName(t *testing.T) {
	c := diamond(t)
	if g := c.GateByName("n1"); g == nil || g.Type != Not {
		t.Errorf("GateByName(n1) = %+v", g)
	}
	if g := c.GateByName("missing"); g != nil {
		t.Errorf("GateByName(missing) = %+v, want nil", g)
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := diamond(t).Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
}

func TestValidateRejectsBadStructures(t *testing.T) {
	base := func() *Circuit {
		c := diamond(t)
		// Deep-copy gates so mutations don't share slices.
		gates := make([]Gate, len(c.Gates))
		for i, g := range c.Gates {
			g.Fanin = append([]int32(nil), g.Fanin...)
			g.Fanout = append([]int32(nil), g.Fanout...)
			gates[i] = g
		}
		return &Circuit{Name: c.Name, Gates: gates, PIs: append([]int(nil), c.PIs...), POs: append([]int(nil), c.POs...)}
	}
	cases := []struct {
		name   string
		mutate func(*Circuit)
	}{
		{"id mismatch", func(c *Circuit) { c.Gates[1].ID = 3 }},
		{"empty name", func(c *Circuit) { c.Gates[2].Name = "" }},
		{"dup name", func(c *Circuit) { c.Gates[2].Name = c.Gates[1].Name }},
		{"bad fanin count", func(c *Circuit) { c.Gates[3].Fanin = c.Gates[3].Fanin[:1] }},
		{"fanin out of range", func(c *Circuit) { c.Gates[3].Fanin[0] = 99 }},
		{"dangling fanout", func(c *Circuit) { c.Gates[0].Fanout = append(c.Gates[0].Fanout, 3) }},
		{"PI not input", func(c *Circuit) { c.PIs = append(c.PIs, 3) }},
		{"PO out of range", func(c *Circuit) { c.POs = append(c.POs, -1) }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", tc.name)
		}
	}
}

func TestCycleDetected(t *testing.T) {
	// Hand-build a 2-gate combinational cycle.
	c := &Circuit{
		Name: "cyclic",
		Gates: []Gate{
			{ID: 0, Name: "a", Type: Input, Fanout: []int32{1}},
			{ID: 1, Name: "g1", Type: Nand, Fanin: []int32{0, 2}, Fanout: []int32{2}},
			{ID: 2, Name: "g2", Type: Not, Fanin: []int32{1}, Fanout: []int32{1}},
		},
		PIs: []int{0},
		POs: []int{2},
	}
	c.seal()
	if _, err := c.CSR(); err == nil {
		t.Error("CSR on cyclic circuit should fail")
	}
}

func seqCircuit(t *testing.T) *Circuit {
	t.Helper()
	// in -> NAND(in, q) -> d ; q = DFF(d); out = NOT(q), PO=out.
	// The NAND->DFF->NAND loop is broken by the DFF cut.
	c, err := ParseBenchString("seq", `
INPUT(in)
OUTPUT(out)
d = NAND(in, q)
q = DFF(d)
out = NOT(q)
`)
	if err != nil {
		t.Fatalf("parse seq: %v", err)
	}
	return c
}

func TestIsSequential(t *testing.T) {
	if !seqCircuit(t).IsSequential() {
		t.Error("seq circuit should report sequential")
	}
	if diamond(t).IsSequential() {
		t.Error("diamond should not report sequential")
	}
}

func TestCombinationalCutsDFFs(t *testing.T) {
	c := seqCircuit(t)
	cc, err := c.Combinational()
	if err != nil {
		t.Fatal(err)
	}
	if cc.IsSequential() {
		t.Fatal("DFFs remain after cut")
	}
	q := cc.GateByName("q")
	if q == nil || q.Type != Input {
		t.Fatalf("q should be a pseudo-input, got %+v", q)
	}
	if len(q.Fanin) != 0 {
		t.Errorf("pseudo-input q has fanin %v", q.Fanin)
	}
	d := cc.GateByName("d")
	found := false
	for _, id := range cc.POs {
		if id == d.ID {
			found = true
		}
	}
	if !found {
		t.Error("DFF driver d should be a pseudo-PO")
	}
	// q must no longer be in d's fanout.
	for _, f := range d.Fanout {
		if int(f) == q.ID {
			t.Error("driver still fans out to the cut flop")
		}
	}
	if err := cc.Validate(); err != nil {
		t.Errorf("cut circuit invalid: %v", err)
	}
	if _, err := cc.CSR(); err != nil {
		t.Errorf("cut circuit not acyclic: %v", err)
	}
}

func TestCombinationalPreservesOriginal(t *testing.T) {
	c := seqCircuit(t)
	before := len(c.PIs)
	if _, err := c.Combinational(); err != nil {
		t.Fatal(err)
	}
	if len(c.PIs) != before {
		t.Error("Combinational mutated the original circuit")
	}
	if !c.IsSequential() {
		t.Error("original lost its DFF")
	}
}

func TestCombinationalDFFChain(t *testing.T) {
	// DFF feeding a DFF: both cut; intermediate flop is PI and PO endpoint.
	c, err := ParseBenchString("ff2", `
INPUT(in)
OUTPUT(out)
q1 = DFF(in)
q2 = DFF(q1)
out = NOT(q2)
`)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := c.Combinational()
	if err != nil {
		t.Fatal(err)
	}
	if cc.IsSequential() {
		t.Fatal("DFF remains")
	}
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
	// in drives nothing but is a pseudo-PO (it feeds a flop input).
	in := cc.GateByName("in")
	if !idIn(cc.POs, in.ID) {
		t.Error("in should be a pseudo-PO (it drove a flop)")
	}
	q1 := cc.GateByName("q1")
	if q1.Type != Input || !idIn(cc.PIs, q1.ID) {
		t.Error("q1 should be a pseudo-PI")
	}
	if !idIn(cc.POs, q1.ID) {
		t.Error("q1 drove q2, so it should also be a pseudo-PO endpoint")
	}
}

func idIn(s []int, id int) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

func TestLogicIDsTopological(t *testing.T) {
	c := diamond(t)
	ids, err := c.LogicIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("LogicIDs len = %d, want 3", len(ids))
	}
	for _, id := range ids {
		if !c.Gates[id].IsLogic() {
			t.Errorf("gate %d is not logic", id)
		}
	}
}

// TestRandomDAGsTopoProperty exercises the CSR levels on random DAGs.
func TestRandomDAGsTopoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder("rand")
		nIn := 2 + rng.Intn(4)
		ids := make([]int, 0, 40)
		for i := 0; i < nIn; i++ {
			ids = append(ids, b.Input("in"+itoa(i)))
		}
		nGates := 5 + rng.Intn(30)
		for i := 0; i < nGates; i++ {
			a := ids[rng.Intn(len(ids))]
			c := ids[rng.Intn(len(ids))]
			for c == a {
				c = ids[rng.Intn(len(ids))]
			}
			ids = append(ids, b.Gate(Nand, "g"+itoa(i), a, c))
		}
		b.Output(ids[len(ids)-1])
		c, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s, err := c.CSR()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lv := s.Level
		for i := range c.Gates {
			for _, f := range c.Gates[i].Fanin {
				if lv[f] >= lv[i] {
					t.Fatalf("trial %d: level invariant violated: lv[%d]=%d >= lv[%d]=%d", trial, f, lv[f], i, lv[i])
				}
			}
		}
		d, _ := c.Depth()
		if d < 1 {
			t.Fatalf("trial %d: depth %d < 1", trial, d)
		}
	}
}
