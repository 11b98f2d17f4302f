package core

import (
	"testing"

	"cmosopt/internal/circuit"
)

// editCircuit appends a small output-side cone to an existing circuit,
// mimicking a typical ECO.
func editCircuit(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder(c.Name)
	cs, err := c.CSR()
	if err != nil {
		t.Fatal(err)
	}
	newID := make([]int, c.N())
	for _, id := range cs.Order {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			newID[id] = b.Input(g.Name)
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = newID[f]
		}
		newID[id] = b.Gate(g.Type, g.Name, fanin...)
	}
	for _, po := range c.POs {
		b.Output(newID[po])
	}
	// The edit: two extra gates watching the first two outputs.
	x := b.Gate(circuit.Xor, "eco_x", newID[c.POs[0]], newID[c.POs[1]])
	y := b.Gate(circuit.Not, "eco_y", x)
	b.Output(y)
	nc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

func TestWarmStartReusesAndStaysFeasible(t *testing.T) {
	base := s298(t)
	p1 := problemFor(t, base, 0.5)
	res1, err := p1.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	edited := editCircuit(t, p1.C)
	p2 := problemFor(t, edited, 0.5)
	res2, reused, fast, err := p2.WarmStart(p1.C, res1.Assignment, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Feasible {
		t.Fatal("ECO result infeasible")
	}
	if reused < p1.C.NumLogic()*9/10 {
		t.Errorf("only %d/%d gates reused", reused, p1.C.NumLogic())
	}
	if fast {
		// The fast path must be dramatically cheaper than a full rerun.
		if res2.Evaluations > res1.Evaluations/10 {
			t.Errorf("warm start used %d evaluations vs full %d", res2.Evaluations, res1.Evaluations)
		}
		// And not grossly worse in energy: the transplanted point is the old
		// optimum plus a small cone.
		if res2.Energy.Total() > res1.Energy.Total()*1.5 {
			t.Errorf("warm energy %v vs original %v", res2.Energy.Total(), res1.Energy.Total())
		}
	}
	if res2.CriticalDelay > p2.CycleBudget() {
		t.Error("cycle time violated")
	}
}

func TestWarmStartFallsBackWhenHopeless(t *testing.T) {
	// Previous design from a slow clock transplanted onto a much faster
	// target: the widths/voltages no longer fit, forcing the full flow.
	base := smallCircuit(t)
	slow := specFor(base, 0.5)
	slow.Fc = 50e6
	pSlow, err := NewProblem(slow)
	if err != nil {
		t.Fatal(err)
	}
	resSlow, err := pSlow.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fast := specFor(base, 0.5)
	fast.Fc = 400e6
	pFast, err := NewProblem(fast)
	if err != nil {
		t.Fatal(err)
	}
	res, _, fastPath, err := pFast.WarmStart(pSlow.C, resSlow.Assignment, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fastPath {
		// Acceptable only if genuinely feasible (widths could stretch).
		if !res.Feasible {
			t.Error("fast path returned infeasible design")
		}
	} else if res.Method != "eco-full" {
		t.Errorf("fallback method = %q", res.Method)
	}
	if !res.Feasible {
		t.Error("final ECO result infeasible")
	}
}

func TestWarmStartValidation(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	if _, _, _, err := p.WarmStart(nil, nil, DefaultOptions()); err == nil {
		t.Error("nil previous design accepted")
	}
}
