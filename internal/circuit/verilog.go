package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Structural Verilog support for the gate-primitive subset that synthesis
// netlists of this class use:
//
//	module s27 (G0, G1, G17);
//	  input G0, G1;
//	  output G17;
//	  wire G10;
//	  nand g1 (G10, G0, G1);   // first terminal is the output
//	  not  g2 (G17, G10);
//	  dff  g3 (Q, D);          // sequential element, as in .bench
//	endmodule
//
// Primitives: and, nand, or, nor, xor, xnor, not, buf, dff. Instance names
// are optional; comments (// and /* */) are stripped.

// ParseVerilog reads one structural-Verilog module into a Circuit.
func ParseVerilog(name string, r io.Reader) (*Circuit, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	src := stripVerilogComments(string(text))

	// Statements are ';'-separated; module header handled specially.
	type protoGate struct {
		typ    GateType
		out    string
		inputs []string
	}
	var (
		moduleName string
		inputs     []string
		outputs    []string
		protos     []protoGate
		sawModule  bool
		sawEnd     bool
	)
	// endmodule has no ';'; treat it as its own statement.
	src = strings.ReplaceAll(src, "endmodule", ";endmodule;")
	for _, stmt := range strings.Split(src, ";") {
		stmt = strings.Join(strings.Fields(stmt), " ")
		if stmt == "" {
			continue
		}
		word, rest, _ := strings.Cut(stmt, " ")
		switch strings.ToLower(word) {
		case "module":
			if sawModule {
				return nil, fmt.Errorf("%s: multiple modules are not supported", name)
			}
			sawModule = true
			moduleName = rest
			if i := strings.IndexByte(moduleName, '('); i >= 0 {
				moduleName = strings.TrimSpace(moduleName[:i])
			}
			if moduleName == "" {
				return nil, fmt.Errorf("%s: module without a name", name)
			}
		case "endmodule":
			sawEnd = true
		case "input":
			inputs = append(inputs, splitSignalList(rest)...)
		case "output":
			outputs = append(outputs, splitSignalList(rest)...)
		case "wire":
			// Declarations only; connectivity comes from the instances.
		default:
			typ, err := gateTypeFromVerilog(word)
			if err != nil {
				return nil, fmt.Errorf("%s: %v (statement %q)", name, err, excerpt(stmt))
			}
			open := strings.IndexByte(rest, '(')
			if open < 0 || !strings.HasSuffix(rest, ")") {
				return nil, fmt.Errorf("%s: malformed instance %q", name, excerpt(stmt))
			}
			terms := splitSignalList(rest[open+1 : len(rest)-1])
			if len(terms) < 2 {
				return nil, fmt.Errorf("%s: instance %q needs an output and at least one input", name, excerpt(stmt))
			}
			protos = append(protos, protoGate{typ: typ, out: terms[0], inputs: terms[1:]})
		}
	}
	if !sawModule || !sawEnd {
		return nil, fmt.Errorf("%s: expected a module ... endmodule block", name)
	}

	// Build the circuit: inputs first, then defined signals (forward
	// references allowed, as in the bench parser).
	byName := make(map[string]int)
	var gates []Gate
	add := func(sig string, typ GateType) (int, error) {
		if _, dup := byName[sig]; dup {
			return 0, fmt.Errorf("%s: signal %q driven twice", name, excerpt(sig))
		}
		id := len(gates)
		gates = append(gates, Gate{ID: id, Name: sig, Type: typ})
		byName[sig] = id
		return id, nil
	}
	var pis []int
	for _, in := range inputs {
		id, err := add(in, Input)
		if err != nil {
			return nil, err
		}
		pis = append(pis, id)
	}
	for _, p := range protos {
		if _, err := add(p.out, p.typ); err != nil {
			return nil, err
		}
	}
	for _, p := range protos {
		id := byName[p.out]
		for _, in := range p.inputs {
			fid, ok := byName[in]
			if !ok {
				return nil, fmt.Errorf("%s: instance output %q references undriven signal %q", name, excerpt(p.out), excerpt(in))
			}
			gates[id].Fanin = append(gates[id].Fanin, int32(fid))
		}
	}
	var pos []int
	for _, out := range outputs {
		id, ok := byName[out]
		if !ok {
			return nil, fmt.Errorf("%s: output %q is never driven", name, excerpt(out))
		}
		pos = append(pos, id)
	}
	c := &Circuit{Name: moduleName, Gates: gates, PIs: pis, POs: pos}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.seal()
	return c, nil
}

// ParseVerilogString is ParseVerilog over in-memory source.
func ParseVerilogString(name, src string) (*Circuit, error) {
	return ParseVerilog(name, strings.NewReader(src))
}

func stripVerilogComments(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); {
		switch {
		case strings.HasPrefix(s[i:], "//"):
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(s)
			}
		case strings.HasPrefix(s[i:], "/*"):
			if j := strings.Index(s[i+2:], "*/"); j >= 0 {
				i += j + 4
			} else {
				i = len(s)
			}
		default:
			sb.WriteByte(s[i])
			i++
		}
	}
	return sb.String()
}

func splitSignalList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func gateTypeFromVerilog(prim string) (GateType, error) {
	switch strings.ToLower(prim) {
	case "and":
		return And, nil
	case "nand":
		return Nand, nil
	case "or":
		return Or, nil
	case "nor":
		return Nor, nil
	case "xor":
		return Xor, nil
	case "xnor":
		return Xnor, nil
	case "not", "inv":
		return Not, nil
	case "buf":
		return Buf, nil
	case "dff":
		return DFF, nil
	}
	return 0, fmt.Errorf("unknown primitive %q", excerpt(prim))
}

// WriteVerilog writes the circuit as a structural-Verilog module; the result
// round-trips through ParseVerilog.
func WriteVerilog(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	var ports []string
	for _, id := range c.PIs {
		ports = append(ports, c.Gates[id].Name)
	}
	for _, id := range c.POs {
		ports = append(ports, c.Gates[id].Name)
	}
	fmt.Fprintf(bw, "module %s (%s);\n", sanitizeModuleName(c.Name), strings.Join(ports, ", "))
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "  input %s;\n", c.Gates[id].Name)
	}
	for _, id := range c.POs {
		fmt.Fprintf(bw, "  output %s;\n", c.Gates[id].Name)
	}
	poSet := map[int]bool{}
	for _, id := range c.POs {
		poSet[id] = true
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == Input || poSet[g.ID] {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", g.Name)
	}
	n := 0
	for _, id := range writeOrder(c) {
		g := &c.Gates[id]
		if g.Type == Input {
			continue
		}
		terms := []string{g.Name}
		for _, f := range g.Fanin {
			terms = append(terms, c.Gates[f].Name)
		}
		fmt.Fprintf(bw, "  %s g%d (%s);\n", verilogPrimName(g.Type), n, strings.Join(terms, ", "))
		n++
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

func verilogPrimName(t GateType) string {
	if t == Buf {
		return "buf"
	}
	return strings.ToLower(t.String())
}

func sanitizeModuleName(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "top"
	}
	return sb.String()
}
