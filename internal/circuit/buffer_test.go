package circuit

import (
	"math/rand"
	"testing"
)

// star builds one driver fanning out to n NOT sinks (each a PO).
func star(t *testing.T, n int) *Circuit {
	t.Helper()
	b := NewBuilder("star")
	in := b.Input("in")
	hub := b.Gate(Not, "hub", in)
	for i := 0; i < n; i++ {
		s := b.Gate(Not, "s"+itoa(i), hub)
		b.Output(s)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInsertBuffersCapsFanout(t *testing.T) {
	c := star(t, 17)
	nc, bufs, err := InsertBuffers(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bufs == 0 {
		t.Fatal("no buffers inserted")
	}
	if err := nc.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range nc.Gates {
		g := &nc.Gates[i]
		if g.NumFanout() > 4 {
			t.Errorf("gate %q fanout %d exceeds cap", g.Name, g.NumFanout())
		}
	}
	if nc.NumLogic() != c.NumLogic()+bufs {
		t.Errorf("gate count %d, want %d + %d buffers", nc.NumLogic(), c.NumLogic(), bufs)
	}
}

func TestInsertBuffersDeepTree(t *testing.T) {
	// Fanout 40 with cap 3 requires multiple tree levels (3² = 9 < 40).
	c := star(t, 40)
	nc, _, err := InsertBuffers(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nc.Gates {
		if n := nc.Gates[i].NumFanout(); n > 3 {
			t.Fatalf("gate %q fanout %d", nc.Gates[i].Name, n)
		}
	}
	if _, err := nc.CSR(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBuffersNoOpBelowCap(t *testing.T) {
	c := star(t, 3)
	nc, bufs, err := InsertBuffers(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bufs != 0 || nc.NumLogic() != c.NumLogic() {
		t.Errorf("buffered a compliant circuit: %d buffers", bufs)
	}
}

func TestInsertBuffersPreservesFunction(t *testing.T) {
	// Random reconvergent circuit: outputs must match gate-for-gate on
	// random input vectors before and after buffering.
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder("fn")
	var ids []int
	for i := 0; i < 5; i++ {
		ids = append(ids, b.Input("in"+itoa(i)))
	}
	for i := 0; i < 40; i++ {
		x := ids[rng.Intn(len(ids))]
		y := ids[rng.Intn(len(ids))]
		for y == x {
			y = ids[rng.Intn(len(ids))]
		}
		types := []GateType{And, Or, Nand, Nor, Xor}
		ids = append(ids, b.Gate(types[rng.Intn(len(types))], "g"+itoa(i), x, y))
	}
	b.Output(ids[len(ids)-1])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nc, _, err := InsertBuffers(c, 2)
	if err != nil {
		t.Fatal(err)
	}

	evalByName := func(ct *Circuit, inputs map[string]bool) map[string]bool {
		cs, err := ct.CSR()
		if err != nil {
			t.Fatal(err)
		}
		val := make([]bool, ct.N())
		for _, id := range cs.Order {
			g := &ct.Gates[id]
			if g.Type == Input {
				val[id] = inputs[g.Name]
				continue
			}
			v := false
			switch g.Type {
			case Buf:
				v = val[g.Fanin[0]]
			case Not:
				v = !val[g.Fanin[0]]
			case And, Nand:
				v = true
				for _, f := range g.Fanin {
					v = v && val[f]
				}
				if g.Type == Nand {
					v = !v
				}
			case Or, Nor:
				for _, f := range g.Fanin {
					v = v || val[f]
				}
				if g.Type == Nor {
					v = !v
				}
			case Xor, Xnor:
				for _, f := range g.Fanin {
					v = v != val[f]
				}
				if g.Type == Xnor {
					v = !v
				}
			}
			val[id] = v
		}
		out := map[string]bool{}
		for _, po := range ct.POs {
			out[ct.Gate(po).Name] = val[po]
		}
		return out
	}

	for trial := 0; trial < 64; trial++ {
		inputs := map[string]bool{}
		for i := 0; i < 5; i++ {
			inputs["in"+itoa(i)] = rng.Intn(2) == 1
		}
		want := evalByName(c, inputs)
		got := evalByName(nc, inputs)
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("trial %d: output %s = %v, want %v", trial, name, got[name], w)
			}
		}
	}
}

func TestInsertBuffersRejects(t *testing.T) {
	c := star(t, 5)
	if _, _, err := InsertBuffers(c, 1); err == nil {
		t.Error("maxFanout=1 accepted")
	}
	seq, _ := ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if _, _, err := InsertBuffers(seq, 4); err == nil {
		t.Error("sequential circuit accepted")
	}
}

func TestPruneDead(t *testing.T) {
	// y reaches the PO; d1/d2 form a dead cone.
	b := NewBuilder("dead")
	a := b.Input("a")
	y := b.Gate(Not, "y", a)
	d1 := b.Gate(Not, "d1", a)
	b.Gate(Not, "d2", d1)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nc, removed, err := PruneDead(c)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	if nc.GateByName("d1") != nil || nc.GateByName("d2") != nil {
		t.Error("dead gates survived")
	}
	if nc.GateByName("y") == nil {
		t.Error("live gate removed")
	}
	if len(nc.PIs) != 1 {
		t.Error("input interface changed")
	}
	if err := nc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneDeadNoOpOnCleanCircuit(t *testing.T) {
	c := star(t, 4)
	nc, removed, err := PruneDead(c)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 || nc.NumLogic() != c.NumLogic() {
		t.Errorf("clean circuit pruned: removed=%d", removed)
	}
}

func TestPruneDeadSequentialRejected(t *testing.T) {
	seq, _ := ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\nd = NOT(a)\n")
	// The raw sequential graph may be cyclic in general; here it is acyclic,
	// so pruning works and removes the dangling NOT.
	nc, removed, err := PruneDead(seq)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("removed = %d, want 1 (the dangling NOT)", removed)
	}
	if !nc.IsSequential() {
		t.Error("live DFF removed")
	}
}
