package circuit

import (
	"strings"
	"testing"
)

const c17Bench = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

// s27Bench is the raw ISCAS'89 s27 netlist: three DFFs close loops, so its
// graph is cyclic until Combinational cuts them.
const s27Bench = `# s27
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
`

func TestParseBenchC17(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogic() != 6 {
		t.Errorf("NumLogic = %d, want 6", c.NumLogic())
	}
	if len(c.PIs) != 5 || len(c.POs) != 2 {
		t.Errorf("PIs=%d POs=%d, want 5 and 2", len(c.PIs), len(c.POs))
	}
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	g := c.GateByName("22")
	if g == nil || g.Type != Nand || g.NumFanin() != 2 {
		t.Errorf("gate 22 = %+v", g)
	}
}

func TestParseBenchForwardReference(t *testing.T) {
	// "out" references "mid" before it is defined.
	c, err := ParseBenchString("fwd", `
INPUT(a)
INPUT(b)
OUTPUT(out)
out = NAND(mid, b)
mid = NOT(a)
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.GateByName("mid") == nil {
		t.Fatal("mid missing")
	}
	if _, err := c.CSR(); err != nil {
		t.Fatal(err)
	}
}

func TestParseBenchCommentsAndBlanks(t *testing.T) {
	c, err := ParseBenchString("cb", `
# leading comment

INPUT(a)
# interior comment
OUTPUT(g)
g = NOT(a)
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2 {
		t.Errorf("N = %d, want 2", c.N())
	}
}

func TestParseBenchGateFunctions(t *testing.T) {
	c, err := ParseBenchString("fns", `
INPUT(a)
INPUT(b)
OUTPUT(o1)
g1 = AND(a, b)
g2 = OR(a, b)
g3 = XOR(a, b)
g4 = XNOR(a, b)
g5 = NOR(a, b)
g6 = BUFF(a)
g7 = INV(b)
o1 = NAND(g1, g2, g3, g4, g5, g6, g7)
`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]GateType{
		"g1": And, "g2": Or, "g3": Xor, "g4": Xnor, "g5": Nor, "g6": Buf, "g7": Not, "o1": Nand,
	}
	for name, typ := range want {
		if g := c.GateByName(name); g == nil || g.Type != typ {
			t.Errorf("%s: got %+v, want type %s", name, g, typ)
		}
	}
	if c.GateByName("o1").NumFanin() != 7 {
		t.Error("multi-input NAND lost fanins")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"garbage", "INPUT(a)\nwhat is this", "unrecognized"},
		{"unknown fn", "INPUT(a)\ng = FROB(a)\n", "unknown gate function"},
		{"undefined signal", "INPUT(a)\ng = NOT(zz)\n", "undefined signal"},
		{"undefined output", "INPUT(a)\nOUTPUT(qq)\ng = NOT(a)\n", "undefined"},
		{"double define", "INPUT(a)\ng = NOT(a)\ng = BUFF(a)\n", "defined twice"},
		{"malformed call", "INPUT(a)\ng = NOT a\n", "malformed"},
		{"empty operand", "INPUT(a)\ng = NAND(a,)\n", "empty operand"},
		{"fanin arity", "INPUT(a)\ng = NAND(a)\nOUTPUT(g)\n", "NAND with 1 fanins"},
	}
	for _, tc := range cases {
		if _, err := ParseBenchString(tc.name, tc.text); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// A parse error quotes a bounded excerpt of the offending input, never the
// whole of it: a .bench line may be 1 MiB long and a Verilog statement has no
// cap. The file:line prefix stays, and errors over short input keep its text.
func TestParseErrorsQuoteBoundedExcerpt(t *testing.T) {
	long := strings.Repeat("x", 1<<20-64)
	bench := func(text string) error {
		_, err := ParseBenchString("big", text)
		return err
	}
	verilog := func(src string) error {
		_, err := ParseVerilogString("big", src)
		return err
	}
	for _, tc := range []struct {
		name string
		err  error
		want string // the error's text up to its excerpt
	}{
		{"1 MiB line", bench("INPUT(a)\n" + long + "\n"), `big:2: unrecognized line "xxx`},
		{"long gate expression", bench("INPUT(a)\ng = NAND(a, " + long + "\n"), `big:2: malformed gate expression "NAND(a, xxx`},
		{"empty operand", bench("INPUT(a)\ng = NAND(a,," + long + ")\n"), `big:2: empty operand in "NAND(a,,xxx`},
		{"long signal name", bench("INPUT(a)\ng = NOT(" + long + ")\n"), `big:2: gate "g" references undefined signal "xxx`},
		{"long gate name", bench("INPUT(a)\n" + long + " = NAND(a)\n"), `big: gate "xxx`},
		{"long statement", verilog("module t (a, y);\ninput a;\noutput y;\nnot u1 (y " + long + ");\nendmodule\n"),
			`big: instance "not u1 (y xxx`},
		{"long primitive", verilog("module t (a, y);\ninput a;\n" + long + " u1 (y, a);\nendmodule\n"),
			`big: unknown primitive "xxx`},
	} {
		if tc.err == nil {
			t.Errorf("%s: parsed", tc.name)
			continue
		}
		msg := tc.err.Error()
		if len(msg) > 300 || !strings.HasPrefix(msg, tc.want) || !strings.Contains(msg, "…") {
			t.Errorf("%s: error of %d bytes, want a short one starting %q with an excerpt marked …: %.300s",
				tc.name, len(msg), tc.want, msg)
		}
	}

	for text, want := range map[string]string{
		"INPUT(a)\nwhat is this\n":           `short:2: unrecognized line "what is this"`,
		"INPUT(a)\ng = NOT a\n":              `short:2: malformed gate expression "NOT a"`,
		"INPUT(a)\ng = NOT(zz)\n":            `short:2: gate "g" references undefined signal "zz"`,
		"INPUT(a)\ng = NAND(a)\n":            `short: gate "g": NAND with 1 fanins`,
		"INPUT(a)\nOUTPUT(qq)\ng = NOT(a)\n": `short: OUTPUT(qq) references undefined signal`,
	} {
		if _, err := ParseBenchString("short", text); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %s", text, err, want)
		}
	}
	const stmt = "module t (a, y);\ninput a;\noutput y;\nnot u1 y, a;\nendmodule\n"
	if _, err := ParseVerilogString("short", stmt); err == nil || err.Error() != `short: malformed instance "not u1 y, a"` {
		t.Errorf("short Verilog statement: err = %v", err)
	}
}

func TestBenchRoundTrip(t *testing.T) {
	orig, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(orig)
	back, err := ParseBenchString("c17", text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if back.N() != orig.N() || len(back.PIs) != len(orig.PIs) || len(back.POs) != len(orig.POs) {
		t.Fatalf("round trip changed shape: %d/%d gates", back.N(), orig.N())
	}
	for i := range orig.Gates {
		og := &orig.Gates[i]
		bg := back.GateByName(og.Name)
		if bg == nil || bg.Type != og.Type || bg.NumFanin() != og.NumFanin() {
			t.Errorf("gate %q changed across round trip", og.Name)
			continue
		}
		for j, f := range og.Fanin {
			if back.Gates[bg.Fanin[j]].Name != orig.Gates[f].Name {
				t.Errorf("gate %q fanin %d changed", og.Name, j)
			}
		}
	}
}

func TestBenchRoundTripSequential(t *testing.T) {
	src := `
INPUT(in)
OUTPUT(out)
d = NAND(in, q)
q = DFF(d)
out = NOT(q)
`
	orig, err := ParseBenchString("seq", src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBenchString("seq", BenchString(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsSequential() {
		t.Error("sequential round trip lost the DFF")
	}
}

func TestComputeStats(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(c)
	if s.Gates != 6 || s.Inputs != 5 || s.Outputs != 2 || s.DFFs != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Depth != 3 {
		t.Errorf("Depth = %d, want 3", s.Depth)
	}
	if s.TypeCounts[Nand] != 6 {
		t.Errorf("NAND count = %d, want 6", s.TypeCounts[Nand])
	}
	if !strings.Contains(s.String(), "gates=6") {
		t.Errorf("String() = %q", s.String())
	}

	// The raw s27 has no CSR order (its DFF loops are uncut), but its
	// fanout lists are sealed all the same.
	raw, err := ParseBenchString("s27", s27Bench)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.CSR(); err == nil {
		t.Fatal("raw s27 should be cyclic")
	}
	s = ComputeStats(raw)
	if s.Gates != 10 || s.DFFs != 3 || s.Depth != 0 || s.MaxFanout != 3 {
		t.Errorf("raw s27 stats = %+v, want 10 gates, 3 DFFs, depth 0, max fanout 3", s)
	}
}
