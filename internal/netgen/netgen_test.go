package netgen

import (
	"testing"

	"cmosopt/internal/circuit"
)

func TestGenerateMatchesConfig(t *testing.T) {
	cfg := Config{Name: "t1", Gates: 80, Depth: 8, PIs: 5, POs: 4, DFFs: 3}
	c, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.NumLogic(); got != cfg.Gates {
		t.Errorf("logic gates = %d, want %d", got, cfg.Gates)
	}
	if got := len(c.PIs); got != cfg.PIs+cfg.DFFs {
		t.Errorf("PIs = %d, want %d", got, cfg.PIs+cfg.DFFs)
	}
	if got := len(c.POs); got < cfg.POs+cfg.DFFs {
		t.Errorf("POs = %d, want >= %d", got, cfg.POs+cfg.DFFs)
	}
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != cfg.Depth {
		t.Errorf("depth = %d, want %d", d, cfg.Depth)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "det", Gates: 60, Depth: 6, PIs: 4, POs: 3}
	a, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if circuit.BenchString(a) != circuit.BenchString(b) {
		t.Error("same seed produced different circuits")
	}
	c, err := Generate(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if circuit.BenchString(a) == circuit.BenchString(c) {
		t.Error("different seeds produced identical circuits")
	}
}

func TestGenerateAcyclicAndConnected(t *testing.T) {
	c, err := Generate(Config{Name: "big", Gates: 300, Depth: 15, PIs: 10, POs: 8, DFFs: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := c.CSR()
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	// Every sink logic gate must be a PO (full observability).
	poSet := make(map[int]bool)
	for _, id := range c.POs {
		poSet[id] = true
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.IsLogic() && cs.NumFanout(int32(i)) == 0 && !poSet[g.ID] {
			t.Errorf("sink gate %q is not a PO", g.Name)
		}
	}
}

func TestGenerateNoDuplicateFanins(t *testing.T) {
	c, err := Generate(Config{Name: "dup", Gates: 200, Depth: 10, PIs: 6, POs: 5}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		seen := map[int32]bool{}
		for _, f := range c.Gates[i].Fanin {
			if seen[f] {
				t.Fatalf("gate %q has duplicate fanin %d", c.Gates[i].Name, f)
			}
			seen[f] = true
		}
	}
}

func TestGenerateMaxFanRespected(t *testing.T) {
	c, err := Generate(Config{Name: "mf", Gates: 150, Depth: 8, PIs: 5, POs: 4, MaxFan: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if n := c.Gates[i].NumFanin(); n > 2 {
			t.Fatalf("gate %q fanin %d exceeds MaxFan 2", c.Gates[i].Name, n)
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Name: "x"},
		{Name: "x", Gates: 5, Depth: 0, PIs: 1},
		{Name: "x", Gates: 5, Depth: 6, PIs: 1},
		{Name: "x", Gates: 5, Depth: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, 1); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestSuiteProfilesMatchPaper(t *testing.T) {
	for _, name := range SuiteNames() {
		cfg, err := ProfileConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Profile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.NumLogic(); got != cfg.Gates {
			t.Errorf("%s: gates %d, want %d", name, got, cfg.Gates)
		}
		d, err := c.Depth()
		if err != nil {
			t.Fatal(err)
		}
		if d != cfg.Depth {
			t.Errorf("%s: depth %d, want %d", name, d, cfg.Depth)
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	a, err := Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	if circuit.BenchString(a) != circuit.BenchString(b) {
		t.Error("Profile not deterministic")
	}
}

func TestProfileUnknown(t *testing.T) {
	if _, err := Profile("s9999"); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := ProfileConfig("s9999"); err == nil {
		t.Error("unknown profile config accepted")
	}
}

func TestSuite(t *testing.T) {
	suite, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 8 {
		t.Fatalf("suite size = %d, want 8", len(suite))
	}
	for _, c := range suite {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestEmbeddedS27(t *testing.T) {
	c := S27()
	s := circuit.ComputeStats(c)
	if s.Gates != 10 || s.DFFs != 3 || s.Inputs != 4 || s.Outputs != 1 {
		t.Errorf("s27 stats = %+v", s)
	}
	cc, err := c.Combinational()
	if err != nil {
		t.Fatal(err)
	}
	if cc.IsSequential() {
		t.Error("s27 cut left DFFs")
	}
	if len(cc.PIs) != 7 { // 4 true PIs + 3 flop outputs
		t.Errorf("s27 cut PIs = %d, want 7", len(cc.PIs))
	}
}

func TestEmbeddedC17(t *testing.T) {
	c := C17()
	s := circuit.ComputeStats(c)
	if s.Gates != 6 || s.Inputs != 5 || s.Outputs != 2 || s.Depth != 3 {
		t.Errorf("c17 stats = %+v", s)
	}
	if s.TypeCounts[circuit.Nand] != 6 {
		t.Errorf("c17 should be all NAND, got %v", s.TypeCounts)
	}
}

func TestSequentializeRoundTrip(t *testing.T) {
	c, err := Profile("s298")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sequentialize(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.IsSequential() {
		t.Fatal("sequentialized circuit has no DFFs")
	}
	stats := circuit.ComputeStats(seq)
	cfg, _ := ProfileConfig("s298")
	if stats.DFFs != cfg.DFFs {
		t.Errorf("DFFs = %d, want %d", stats.DFFs, cfg.DFFs)
	}
	// Cutting the flops recovers the original structure.
	cut, err := seq.Combinational()
	if err != nil {
		t.Fatal(err)
	}
	if cut.NumLogic() != c.NumLogic() {
		t.Errorf("cut logic gates %d, want %d", cut.NumLogic(), c.NumLogic())
	}
	if len(cut.PIs) != len(c.PIs) {
		t.Errorf("cut PIs %d, want %d", len(cut.PIs), len(c.PIs))
	}
	d1, _ := cut.Depth()
	d2, _ := c.Depth()
	if d1 != d2 {
		t.Errorf("cut depth %d, want %d", d1, d2)
	}
}

func TestSequentializeCombinationalPassThrough(t *testing.T) {
	c := C17() // no ff* inputs
	seq, err := Sequentialize(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seq.IsSequential() {
		t.Error("c17 should stay combinational")
	}
	if seq.NumLogic() != c.NumLogic() {
		t.Error("gate count changed")
	}
}
