package circuit

import (
	"reflect"
	"strings"
	"testing"
)

const s27Verilog = `
// ISCAS'89 s27 in structural Verilog
module s27 (G0, G1, G2, G3, G17);
  input G0, G1, G2, G3;
  output G17;
  wire G5, G6, G7, G8, G9, G10, G11, G12, G13, G14, G15, G16;
  dff  q1 (G5, G10);
  dff  q2 (G6, G11);
  dff  q3 (G7, G13);
  not  u1 (G14, G0);
  not  u2 (G17, G11);
  and  u3 (G8, G14, G6);
  or   u4 (G15, G12, G8);
  or   u5 (G16, G3, G8);
  nand u6 (G9, G16, G15);
  nor  u7 (G10, G14, G11);
  nor  u8 (G11, G5, G9);
  nor  u9 (G12, G1, G7);
  nand u10 (G13, G2, G12);
endmodule
`

func TestParseVerilogS27(t *testing.T) {
	c, err := ParseVerilogString("s27.v", s27Verilog)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "s27" {
		t.Errorf("module name = %q", c.Name)
	}
	s := ComputeStats(c)
	if s.Gates != 10 || s.DFFs != 3 || s.Inputs != 4 || s.Outputs != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Must match the embedded .bench version structurally.
	bench, err := ParseBenchString("s27", `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bench.Gates {
		bg := &bench.Gates[i]
		vg := c.GateByName(bg.Name)
		if vg == nil || vg.Type != bg.Type || vg.NumFanin() != bg.NumFanin() {
			t.Errorf("gate %q differs between formats", bg.Name)
		}
	}
}

func TestVerilogRoundTrip(t *testing.T) {
	orig, err := ParseVerilogString("s27.v", s27Verilog)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVerilog(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilogString("rt", sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	if back.N() != orig.N() || len(back.PIs) != len(orig.PIs) || len(back.POs) != len(orig.POs) {
		t.Fatalf("round trip changed shape")
	}
	for i := range orig.Gates {
		og := &orig.Gates[i]
		bg := back.GateByName(og.Name)
		if bg == nil || bg.Type != og.Type || bg.NumFanin() != og.NumFanin() {
			t.Errorf("gate %q changed across round trip", og.Name)
		}
	}
}

func TestVerilogBenchCrossConversion(t *testing.T) {
	// bench → circuit → verilog → circuit: all gate structure preserved,
	// including BUF (whose primitive name differs between the formats).
	bench, err := ParseBenchString("x", `
INPUT(a)
INPUT(b)
OUTPUT(y)
m = XNOR(a, b)
n = BUFF(m)
y = NOT(n)
`)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVerilog(&sb, bench); err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilogString("x.v", sb.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if g := back.GateByName("n"); g == nil || g.Type != Buf {
		t.Errorf("BUF lost in conversion: %+v", g)
	}
	if g := back.GateByName("m"); g == nil || g.Type != Xnor {
		t.Errorf("XNOR lost: %+v", g)
	}
}

// TestParseVerilogSealsLikeBench writes one netlist in both formats: the
// two parsers assign IDs in emission order, so the sealed CSR arrays must be
// equal.
func TestParseVerilogSealsLikeBench(t *testing.T) {
	c := randomDAG(t, 9, 5, 60)
	fromBench, err := ParseBenchString("rt", BenchString(c))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVerilog(&sb, c); err != nil {
		t.Fatal(err)
	}
	fromVerilog, err := ParseVerilogString("rt.v", sb.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	want, err := fromBench.CSR()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromVerilog.CSR()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Verilog CSR differs from bench CSR:\n got  %+v\n want %+v", got, want)
	}
}

func TestParseVerilogComments(t *testing.T) {
	src := `
/* block
   comment */
module t (a, y); // trailing
  input a;
  output y;
  not u1 (y, a); /* inline */
endmodule
`
	c, err := ParseVerilogString("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogic() != 1 {
		t.Errorf("gates = %d", c.NumLogic())
	}
}

func TestParseVerilogErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no module", "input a;\n", "module"},
		{"no endmodule", "module t (a);\ninput a;\n", "endmodule"},
		{"unknown primitive", "module t (a, y);\ninput a;\noutput y;\nfrob u1 (y, a);\nendmodule\n", "unknown primitive"},
		{"undriven input", "module t (a, y);\ninput a;\noutput y;\nnot u1 (y, zz);\nendmodule\n", "undriven"},
		{"undriven output", "module t (a, y);\ninput a;\noutput y;\nendmodule\n", "never driven"},
		{"double driver", "module t (a, y);\ninput a;\noutput y;\nnot u1 (y, a);\nbuf u2 (y, a);\nendmodule\n", "driven twice"},
		{"arity", "module t (a, y);\ninput a;\noutput y;\nnot u1 (y);\nendmodule\n", "at least one input"},
		{"malformed instance", "module t (a, y);\ninput a;\noutput y;\nnot u1 y, a;\nendmodule\n", "malformed"},
		{"two modules", "module t (a);\ninput a;\nendmodule\nmodule u (b);\ninput b;\nendmodule\n", "multiple modules"},
	}
	for _, tc := range cases {
		if _, err := ParseVerilogString(tc.name, tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSanitizeModuleName(t *testing.T) {
	if got := sanitizeModuleName("s298+buf"); got != "s298_buf" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitizeModuleName(""); got != "top" {
		t.Errorf("empty sanitize = %q", got)
	}
}
