package timing

import (
	"math"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
)

// ladder builds a small circuit with known paths:
//
//	a -> g1(NOT) -> g3(NAND) -> g4(NOT, PO)
//	b -> g2(NOT) --^
//
// g1,g2 fanout 1; g3 fanout 1; g4 fanout 0 (effective 1).
func ladder(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("ladder")
	a := b.Input("a")
	bb := b.Input("b")
	g1 := b.Gate(circuit.Not, "g1", a)
	g2 := b.Gate(circuit.Not, "g2", bb)
	g3 := b.Gate(circuit.Nand, "g3", g1, g2)
	g4 := b.Gate(circuit.Not, "g4", g3)
	b.Output(g4)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func analysis(t *testing.T, c *circuit.Circuit) *Analysis {
	t.Helper()
	a, err := NewAnalysis(c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAnalysisRejectsSequential(t *testing.T) {
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if _, err := NewAnalysis(seq); err == nil {
		t.Error("sequential circuit accepted")
	}
}

func TestEffectiveFanout(t *testing.T) {
	// FoEff = max(1, fanout) + 1 for the gate's intrinsic share.
	c := ladder(t)
	a := analysis(t, c)
	g4 := c.GateByName("g4")
	if a.FoEff[g4.ID] != 2 {
		t.Errorf("PO effective fanout = %d, want 2 (module load + intrinsic)", a.FoEff[g4.ID])
	}
	g1 := c.GateByName("g1")
	if a.FoEff[g1.ID] != 2 {
		t.Errorf("g1 effective fanout = %d, want 2", a.FoEff[g1.ID])
	}
	for _, id := range c.PIs {
		if a.FoEff[id] != 0 {
			t.Errorf("input fanout should be 0, got %d", a.FoEff[id])
		}
	}
}

func TestUpDownLadder(t *testing.T) {
	// All four gates have FoEff = 2; the critical path g1→g3→g4 sums to 6.
	c := ladder(t)
	a := analysis(t, c)
	g1 := c.GateByName("g1").ID
	g3 := c.GateByName("g3").ID
	g4 := c.GateByName("g4").ID
	if a.Up[g1] != 2 || a.Up[g3] != 4 || a.Up[g4] != 6 {
		t.Errorf("Up = %d %d %d, want 2 4 6", a.Up[g1], a.Up[g3], a.Up[g4])
	}
	if a.Down[g4] != 2 || a.Down[g3] != 4 || a.Down[g1] != 6 {
		t.Errorf("Down = %d %d %d, want 2 4 6", a.Down[g4], a.Down[g3], a.Down[g1])
	}
	if th := a.Through(g3); th != 6 {
		t.Errorf("Through(g3) = %d, want 6", th)
	}
	if mc := a.MaxCriticality(); mc != 6 {
		t.Errorf("MaxCriticality = %d, want 6", mc)
	}
}

func TestMostCriticalPath(t *testing.T) {
	c := ladder(t)
	a := analysis(t, c)
	p := a.MostCriticalPath()
	if len(p) != 3 {
		t.Fatalf("path %v, want 3 gates", p)
	}
	if a.PathCriticality(p) != a.MaxCriticality() {
		t.Errorf("path criticality %d != max %d", a.PathCriticality(p), a.MaxCriticality())
	}
	// Path must follow edges.
	for i := 1; i < len(p); i++ {
		ok := false
		for _, f := range c.Gates[p[i]].Fanin {
			if int(f) == p[i-1] {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("non-edge step %d->%d", p[i-1], p[i])
		}
	}
}

func TestKBestPathsLadder(t *testing.T) {
	c := ladder(t)
	a := analysis(t, c)
	paths := a.KBestPaths(10)
	// Exactly two input-to-output paths exist.
	if len(paths) != 2 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	for _, p := range paths {
		if a.PathCriticality(p) != 6 {
			t.Errorf("path %v criticality %d, want 6", p, a.PathCriticality(p))
		}
	}
}

func TestKBestPathsOrderedAndValid(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "kb", Gates: 50, Depth: 6, PIs: 4, POs: 3}, 17)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	paths := a.KBestPaths(40)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	prev := math.MaxInt
	for _, p := range paths {
		crit := a.PathCriticality(p)
		if crit > prev {
			t.Fatalf("paths out of order: %d after %d", crit, prev)
		}
		prev = crit
		// Structural validity: edges, starts input-fed, ends at PO/sink.
		for i := 1; i < len(p); i++ {
			ok := false
			for _, f := range c.Gates[p[i]].Fanin {
				if int(f) == p[i-1] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("path %v has non-edge step", p)
			}
		}
		first := c.Gate(p[0])
		fed := false
		for _, f := range first.Fanin {
			if !c.Gates[f].IsLogic() {
				fed = true
			}
		}
		if !fed {
			t.Fatalf("path %v does not start at an input-fed gate", p)
		}
	}
	if paths[0] != nil && a.PathCriticality(paths[0]) != a.MaxCriticality() {
		t.Errorf("first path criticality %d != max %d", a.PathCriticality(paths[0]), a.MaxCriticality())
	}
}

func TestKBestPathsDistinct(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "kd", Gates: 30, Depth: 5, PIs: 3, POs: 2}, 23)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	paths := a.KBestPaths(25)
	seen := map[string]bool{}
	for _, p := range paths {
		key := ""
		for _, id := range p {
			key += string(rune(id)) + ","
		}
		if seen[key] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[key] = true
	}
}

func TestKBestPathsZeroK(t *testing.T) {
	a := analysis(t, ladder(t))
	if p := a.KBestPaths(0); p != nil {
		t.Errorf("k=0 should return nil, got %v", p)
	}
}

func TestAssignBudgetsLadder(t *testing.T) {
	c := ladder(t)
	a := analysis(t, c)
	const T = 3e-9
	res, err := AssignBudgets(a, T)
	if err != nil {
		t.Fatal(err)
	}
	// All gates have effective fanout 2 and the critical path has 3 gates,
	// so every gate on it gets T/3; g2 (second path) gets the leftover T/3.
	for _, name := range []string{"g1", "g2", "g3", "g4"} {
		id := c.GateByName(name).ID
		if math.Abs(res.TMax[id]-T/3)/T > 1e-12 {
			t.Errorf("%s budget = %v, want %v", name, res.TMax[id], T/3)
		}
	}
	if res.Floored != 0 {
		t.Errorf("unexpected floored budgets: %d", res.Floored)
	}
}

func TestAssignBudgetsProportionalToFanout(t *testing.T) {
	// in -> g1 (fanout 2: g2, g3); g2,g3 are POs.
	b := circuit.NewBuilder("fan")
	in := b.Input("in")
	g1 := b.Gate(circuit.Not, "g1", in)
	g2 := b.Gate(circuit.Not, "g2", g1)
	g3 := b.Gate(circuit.Not, "g3", g1)
	b.Output(g2)
	b.Output(g3)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	res, err := AssignBudgets(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Critical path g1->g2 (or g3): effective fanouts 3 and 2 → budgets
	// split 3:2 over T = 5.
	if math.Abs(res.TMax[g1]-3) > 1e-12 {
		t.Errorf("g1 budget = %v, want 3", res.TMax[g1])
	}
	if math.Abs(res.TMax[g2]-2) > 1e-12 || math.Abs(res.TMax[g3]-2) > 1e-12 {
		t.Errorf("g2/g3 budgets = %v/%v, want 2", res.TMax[g2], res.TMax[g3])
	}
}

func TestAssignBudgetsInvariantRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c, err := netgen.Generate(netgen.Config{Name: "inv", Gates: 120, Depth: 10, PIs: 6, POs: 5}, seed)
		if err != nil {
			t.Fatal(err)
		}
		a := analysis(t, c)
		const T = 3.33e-9
		res, err := AssignBudgets(a, T)
		if err != nil {
			t.Fatal(err)
		}
		worst, ok := CheckBudgets(a, res.TMax, T, 1e-9)
		if !ok {
			t.Errorf("seed %d: worst path budget %v exceeds T %v", seed, worst, T)
		}
		// Every logic gate received a positive finite budget.
		for i := range c.Gates {
			if !c.Gates[i].IsLogic() {
				continue
			}
			if !(res.TMax[i] > 0) || math.IsInf(res.TMax[i], 1) {
				t.Fatalf("seed %d: gate %d budget %v", seed, i, res.TMax[i])
			}
		}
	}
}

func TestAssignBudgetsMatchesEnumerationOrder(t *testing.T) {
	// The DP path selection must process paths in the same criticality order
	// as the explicit K-best enumeration (ties aside): the first path's
	// criticality equals the enumerator's first.
	c, err := netgen.Generate(netgen.Config{Name: "eq", Gates: 40, Depth: 6, PIs: 4, POs: 3}, 31)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	paths := a.KBestPaths(1)
	if len(paths) != 1 {
		t.Fatal("enumerator returned no path")
	}
	if got, want := a.PathCriticality(a.MostCriticalPath()), a.PathCriticality(paths[0]); got != want {
		t.Errorf("DP path criticality %d != enumerator %d", got, want)
	}
}

func TestAssignBudgetsEnumeratedAgrees(t *testing.T) {
	// The production (direct-selection) Procedure 1 and the paper-literal
	// enumerated form must agree wherever path criticalities are untied; on
	// ties they may distribute differently, so the test checks (a) the
	// ladder, where symmetry forces identical budgets, and (b) the shared
	// invariants on random circuits.
	c := ladder(t)
	a := analysis(t, c)
	const T = 3e-9
	direct, err := AssignBudgets(a, T)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := AssignBudgetsEnumerated(a, T, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if !c.Gates[i].IsLogic() {
			continue
		}
		if math.Abs(direct.TMax[i]-enum.TMax[i]) > T*1e-12 {
			t.Errorf("gate %d budgets differ: %v vs %v", i, direct.TMax[i], enum.TMax[i])
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		rc, err := netgen.Generate(netgen.Config{Name: "eq", Gates: 60, Depth: 7, PIs: 5, POs: 4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		ra := analysis(t, rc)
		de, err := AssignBudgetsEnumerated(ra, T, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if worst, ok := CheckBudgets(ra, de.TMax, T, 1e-9); !ok {
			t.Errorf("seed %d: enumerated budgets break the invariant (worst %v)", seed, worst)
		}
		for i := range rc.Gates {
			if rc.Gates[i].IsLogic() && !(de.TMax[i] > 0) {
				t.Fatalf("seed %d: gate %d budget %v", seed, i, de.TMax[i])
			}
		}
	}
}

func TestAssignBudgetsEnumeratedValidation(t *testing.T) {
	a := analysis(t, ladder(t))
	if _, err := AssignBudgetsEnumerated(a, 0, 10); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := AssignBudgetsEnumerated(a, 1, 0); err == nil {
		t.Error("maxPaths=0 accepted")
	}
	// A tiny horizon still covers every gate through the fallback.
	res, err := AssignBudgetsEnumerated(a, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.C.Gates {
		if a.C.Gates[i].IsLogic() && math.IsInf(res.TMax[i], 1) {
			t.Fatalf("gate %d left unassigned", i)
		}
	}
}

func TestAssignBudgetsRejectsBadT(t *testing.T) {
	a := analysis(t, ladder(t))
	if _, err := AssignBudgets(a, 0); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := AssignBudgets(a, math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
}

func TestRepairBudgets(t *testing.T) {
	c := ladder(t)
	a := analysis(t, c)
	res, err := AssignBudgets(a, 3e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate a driver's budget artificially; repair must cap it.
	g3 := c.GateByName("g3").ID
	g4 := c.GateByName("g4").ID
	res.TMax[g3] = 100 * res.TMax[g4]
	n, err := RepairBudgets(a, res, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no budgets repaired")
	}
	if res.TMax[g3] > 0.5*res.TMax[g4]/0.2+1e-18 {
		t.Errorf("g3 budget %v not capped vs g4 %v", res.TMax[g3], res.TMax[g4])
	}
	if res.Repaired != n {
		t.Errorf("Repaired counter %d != %d", res.Repaired, n)
	}
}

func TestRepairBudgetsParamValidation(t *testing.T) {
	a := analysis(t, ladder(t))
	res, _ := AssignBudgets(a, 1)
	for _, bad := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.2, 0}, {0.2, 1}} {
		if _, err := RepairBudgets(a, res, bad[0], bad[1]); err == nil {
			t.Errorf("kappa=%v gamma=%v accepted", bad[0], bad[1])
		}
	}
}

func TestRepairPreservesInvariant(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "rp", Gates: 100, Depth: 8, PIs: 5, POs: 4}, 12)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	const T = 3.33e-9
	res, err := AssignBudgets(a, T)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RepairBudgets(a, res, 0.16, 0.6); err != nil {
		t.Fatal(err)
	}
	if worst, ok := CheckBudgets(a, res.TMax, T, 1e-9); !ok {
		t.Errorf("repair broke the invariant: worst %v > %v", worst, T)
	}
}
