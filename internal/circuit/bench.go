package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads a netlist in the ISCAS .bench format:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G10 = NAND(G0, G1)
//	G11 = DFF(G10)
//
// Signal names may be referenced before they are defined. The returned
// circuit may be sequential (contain DFFs); cut them with Combinational
// before optimization.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type protoGate struct {
		name   string
		typ    GateType
		fanins []string
		line   int
	}
	var (
		protos  []protoGate
		inputs  []string
		outputs []string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if arg, ok := parseDirective(line, "INPUT"); ok {
			inputs = append(inputs, arg)
			continue
		}
		if arg, ok := parseDirective(line, "OUTPUT"); ok {
			outputs = append(outputs, arg)
			continue
		}
		lhs, rhs, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("%s:%d: unrecognized line %q", name, lineNo, excerpt(line))
		}
		gname := strings.TrimSpace(lhs)
		fn, args, err := parseCall(strings.TrimSpace(rhs))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
		}
		typ, err := gateTypeFromBench(fn)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
		}
		protos = append(protos, protoGate{name: gname, typ: typ, fanins: args, line: lineNo})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	// Assign IDs: inputs first (declaration order), then defined gates.
	byName := make(map[string]int, len(inputs)+len(protos))
	var gates []Gate
	addGate := func(gname string, typ GateType) (int, error) {
		if _, dup := byName[gname]; dup {
			return 0, fmt.Errorf("%s: signal %q defined twice", name, excerpt(gname))
		}
		id := len(gates)
		gates = append(gates, Gate{ID: id, Name: gname, Type: typ})
		byName[gname] = id
		return id, nil
	}
	var pis []int
	for _, in := range inputs {
		id, err := addGate(in, Input)
		if err != nil {
			return nil, err
		}
		pis = append(pis, id)
	}
	for _, p := range protos {
		if _, err := addGate(p.name, p.typ); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, p.line, err)
		}
	}
	// Resolve fanins.
	for _, p := range protos {
		id := byName[p.name]
		for _, fn := range p.fanins {
			fid, ok := byName[fn]
			if !ok {
				return nil, fmt.Errorf("%s:%d: gate %q references undefined signal %q", name, p.line, excerpt(p.name), excerpt(fn))
			}
			gates[id].Fanin = append(gates[id].Fanin, int32(fid))
		}
	}
	var pos []int
	for _, out := range outputs {
		id, ok := byName[out]
		if !ok {
			return nil, fmt.Errorf("%s: OUTPUT(%s) references undefined signal", name, excerpt(out))
		}
		pos = append(pos, id)
	}
	c := &Circuit{Name: name, Gates: gates, PIs: pis, POs: pos}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.seal()
	return c, nil
}

// ParseBenchString is ParseBench over an in-memory netlist.
func ParseBenchString(name, text string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(text))
}

func parseDirective(line, keyword string) (arg string, ok bool) {
	if !strings.HasPrefix(line, keyword) {
		return "", false
	}
	rest := strings.TrimSpace(line[len(keyword):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", false
	}
	return strings.TrimSpace(rest[1 : len(rest)-1]), true
}

func parseCall(s string) (fn string, args []string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed gate expression %q", excerpt(s))
	}
	fn = strings.TrimSpace(s[:open])
	inner := s[open+1 : len(s)-1]
	for _, a := range strings.Split(inner, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return "", nil, fmt.Errorf("empty operand in %q", excerpt(s))
		}
		args = append(args, a)
	}
	return fn, args, nil
}

func gateTypeFromBench(fn string) (GateType, error) {
	switch strings.ToUpper(fn) {
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "NOT", "INV":
		return Not, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "DFF":
		return DFF, nil
	}
	return 0, fmt.Errorf("unknown gate function %q", excerpt(fn))
}

// WriteBench writes the circuit in .bench format. ParseBench(WriteBench(c))
// reproduces the circuit up to gate ID renumbering.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range writeOrder(c) {
		g := &c.Gates[id]
		if g.Type == Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, benchFuncName(g.Type), strings.Join(names, ", "))
	}
	return bw.Flush()
}

// writeOrder is the gate sequence the netlist writers emit: topological
// order when the circuit is acyclic, else ID order.
func writeOrder(c *Circuit) []int32 {
	if s, err := c.CSR(); err == nil {
		return s.Order
	}
	order := make([]int32, len(c.Gates))
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

func benchFuncName(t GateType) string {
	if t == Buf {
		return "BUFF"
	}
	return t.String()
}

// BenchString renders the circuit as a .bench netlist string.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = WriteBench(&sb, c)
	return sb.String()
}

// Stats summarizes the structure of a circuit the way the paper's Table 1
// header does (gate count, depth) plus fanout information used in analyses.
type Stats struct {
	Name       string
	Gates      int // logic gates (excludes inputs and DFFs)
	Inputs     int // primary inputs (pseudo-PIs included after a DFF cut)
	Outputs    int
	DFFs       int
	Depth      int
	MaxFanout  int
	TypeCounts map[GateType]int
}

// ComputeStats gathers structural statistics of a circuit built by a
// Builder, a parser or Combinational. Depth is 0 (with no error) for
// sequential circuits whose raw graph is cyclic; cut DFFs first for depth.
// The fanout counts read the sealed CSR lists, which seal derives even for
// a cyclic netlist.
func ComputeStats(c *Circuit) Stats {
	s := Stats{Name: c.Name, TypeCounts: make(map[GateType]int)}
	for i := range c.Gates {
		g := &c.Gates[i]
		s.TypeCounts[g.Type]++
		switch g.Type {
		case Input:
			s.Inputs++
		case DFF:
			s.DFFs++
		default:
			s.Gates++
		}
		if fo := c.csr.NumFanout(int32(i)); fo > s.MaxFanout {
			s.MaxFanout = fo
		}
	}
	s.Outputs = len(c.POs)
	if d, err := c.Depth(); err == nil {
		s.Depth = d
	}
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	types := make([]string, 0, len(s.TypeCounts))
	for t, n := range s.TypeCounts {
		if t == Input {
			continue
		}
		types = append(types, fmt.Sprintf("%s:%d", t, n))
	}
	sort.Strings(types)
	return fmt.Sprintf("%s: gates=%d depth=%d in=%d out=%d dff=%d maxFo=%d [%s]",
		s.Name, s.Gates, s.Depth, s.Inputs, s.Outputs, s.DFFs, s.MaxFanout, strings.Join(types, " "))
}
