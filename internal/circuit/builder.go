package circuit

import "fmt"

// Builder incrementally constructs a Circuit. Methods record errors instead
// of returning them; Build reports the first one, so call sites stay terse:
//
//	b := circuit.NewBuilder("half-adder")
//	a, bIn := b.Input("a"), b.Input("b")
//	sum := b.Gate(circuit.Xor, "sum", a, bIn)
//	carry := b.Gate(circuit.And, "carry", a, bIn)
//	b.Output(sum)
//	b.Output(carry)
//	c, err := b.Build()
type Builder struct {
	name  string
	gates []Gate
	pis   []int
	pos   []int
	byN   map[string]int
	err   error
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byN: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...any) int {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return -1
}

func (b *Builder) add(t GateType, name string, fanin ...int) int {
	if b.err != nil {
		return -1
	}
	if name == "" {
		return b.fail("builder %q: empty gate name", b.name)
	}
	if _, dup := b.byN[name]; dup {
		return b.fail("builder %q: duplicate gate name %q", b.name, name)
	}
	if n := len(fanin); n < t.MinFanin() || (t.MaxFanin() >= 0 && n > t.MaxFanin()) {
		return b.fail("builder %q: gate %q: %s with %d fanins", b.name, name, t, n)
	}
	id := len(b.gates)
	for _, f := range fanin {
		if f < 0 || f >= id {
			return b.fail("builder %q: gate %q: bad fanin id %d", b.name, name, f)
		}
	}
	in := make([]int32, len(fanin))
	for i, f := range fanin {
		in[i] = int32(f)
		b.gates[f].Fanout = append(b.gates[f].Fanout, int32(id))
	}
	b.gates = append(b.gates, Gate{ID: id, Name: name, Type: t, Fanin: in})
	b.byN[name] = id
	return id
}

// Input declares a primary input and returns its gate ID.
func (b *Builder) Input(name string) int {
	id := b.add(Input, name)
	if id >= 0 {
		b.pis = append(b.pis, id)
	}
	return id
}

// Gate adds a logic gate of the given type and returns its ID.
func (b *Builder) Gate(t GateType, name string, fanin ...int) int {
	if t == Input {
		return b.fail("builder %q: use Input to add %q", b.name, name)
	}
	return b.add(t, name, fanin...)
}

// Output marks an existing gate as a primary output.
func (b *Builder) Output(id int) {
	if b.err != nil {
		return
	}
	if id < 0 || id >= len(b.gates) {
		b.fail("builder %q: output id %d out of range", b.name, id)
		return
	}
	for _, p := range b.pos {
		if p == id {
			return // already marked
		}
	}
	b.pos = append(b.pos, id)
}

// Err returns the first error recorded so far, if any.
func (b *Builder) Err() error { return b.err }

// Build validates and returns the circuit. The Builder must not be reused.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	c := &Circuit{Name: b.name, Gates: b.gates, PIs: b.pis, POs: b.pos}
	if len(c.PIs) == 0 {
		return nil, fmt.Errorf("builder %q: circuit has no primary inputs", b.name)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("builder %q: %w", b.name, err)
	}
	c.seal()
	return c, nil
}
