package circuit

import (
	"fmt"
	"sync"
)

// Circuit is an immutable gate-level network. Build one with a Builder, the
// bench or Verilog parser, or the netgen package. Gate IDs are indices into
// Gates.
type Circuit struct {
	Name  string
	Gates []Gate
	// PIs lists primary-input gate IDs in declaration order.
	PIs []int
	// POs lists primary-output gate IDs in declaration order. A PO may also
	// have internal fanout.
	POs []int

	csr      *CSR  // the topology, built by seal (see csr.go)
	cycleErr error // set by seal instead of levelizing a cyclic network

	nameOnce sync.Once
	byName   map[string]int // name→id index, built on first GateByName
}

// N returns the total number of gates, including inputs.
func (c *Circuit) N() int { return len(c.Gates) }

// NumLogic returns the number of combinational logic gates (the N of the
// paper's "random logic network of N static CMOS gates").
func (c *Circuit) NumLogic() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].IsLogic() {
			n++
		}
	}
	return n
}

// Gate returns the gate with the given ID. It panics on an out-of-range ID,
// which always indicates a programming error, not bad input.
func (c *Circuit) Gate(id int) *Gate { return &c.Gates[id] }

// IsSequential reports whether the circuit still contains DFF elements.
func (c *Circuit) IsSequential() bool {
	for i := range c.Gates {
		if c.Gates[i].Type == DFF {
			return true
		}
	}
	return false
}

// GateByName returns the gate with the given name, or nil. The name→id index
// is built once, on first use, and is safe to build from concurrent callers;
// it stays lazy because most circuits are never looked up by name. On a
// circuit with duplicate names — which Validate rejects — the first
// occurrence wins.
func (c *Circuit) GateByName(name string) *Gate {
	c.nameOnce.Do(func() {
		c.byName = make(map[string]int, len(c.Gates))
		for i := range c.Gates {
			if _, dup := c.byName[c.Gates[i].Name]; !dup {
				c.byName[c.Gates[i].Name] = i
			}
		}
	})
	if i, ok := c.byName[name]; ok {
		return &c.Gates[i]
	}
	return nil
}

// Depth returns the logic depth: the number of logic gates on the longest
// input-to-output path (the "Depth" column of the paper's Table 1).
func (c *Circuit) Depth() (int, error) {
	s, err := c.CSR()
	if err != nil {
		return 0, err
	}
	return s.Depth, nil
}

// Validate checks structural invariants: gate IDs match indices, fanin counts
// are legal for each type, fanin/fanout cross-references are consistent, all
// PIs are Input gates, PO IDs are in range, and names are unique.
func (c *Circuit) Validate() error {
	names := make(map[string]int, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.ID != i {
			return fmt.Errorf("gate %q: ID %d does not match index %d", excerpt(g.Name), g.ID, i)
		}
		if !g.Type.Valid() || g.Type == numGateTypes {
			return fmt.Errorf("gate %q: invalid type %d", excerpt(g.Name), g.Type)
		}
		if g.Name == "" {
			return fmt.Errorf("gate %d: empty name", i)
		}
		if prev, dup := names[g.Name]; dup {
			return fmt.Errorf("duplicate gate name %q (gates %d and %d)", excerpt(g.Name), prev, i)
		}
		names[g.Name] = i
		if n := g.NumFanin(); n < g.Type.MinFanin() || (g.Type.MaxFanin() >= 0 && n > g.Type.MaxFanin()) {
			return fmt.Errorf("gate %q: %s with %d fanins", excerpt(g.Name), g.Type, n)
		}
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.Gates) {
				return fmt.Errorf("gate %q: fanin %d out of range", excerpt(g.Name), f)
			}
			if !containsID(c.Gates[f].Fanout, i) {
				return fmt.Errorf("gate %q: fanin %q does not list it as fanout", excerpt(g.Name), excerpt(c.Gates[f].Name))
			}
		}
		for _, f := range g.Fanout {
			if f < 0 || int(f) >= len(c.Gates) {
				return fmt.Errorf("gate %q: fanout %d out of range", excerpt(g.Name), f)
			}
			if !containsID(c.Gates[f].Fanin, i) {
				return fmt.Errorf("gate %q: fanout %q does not list it as fanin", excerpt(g.Name), excerpt(c.Gates[f].Name))
			}
		}
	}
	for _, id := range c.PIs {
		if id < 0 || id >= len(c.Gates) {
			return fmt.Errorf("PI id %d out of range", id)
		}
		if c.Gates[id].Type != Input {
			return fmt.Errorf("PI %q is not an Input gate", excerpt(c.Gates[id].Name))
		}
	}
	for _, id := range c.POs {
		if id < 0 || id >= len(c.Gates) {
			return fmt.Errorf("PO id %d out of range", id)
		}
	}
	return nil
}

func containsID(s []int32, id int) bool {
	for _, v := range s {
		if int(v) == id {
			return true
		}
	}
	return false
}

// Combinational returns a copy of the circuit with every DFF cut: the flop's
// output becomes a pseudo primary input (an Input gate keeping the DFF's
// fanouts) and the flop's driver becomes a pseudo primary output. This is the
// standard register-to-register view under which the paper's cycle-time
// constraint applies. Circuits with no DFFs are returned as a plain copy.
func (c *Circuit) Combinational() (*Circuit, error) {
	// The copied gates share c's edge views until seal gives them their own
	// lists; the cut replaces the slices it changes instead of editing them.
	nc := &Circuit{
		Name:  c.Name,
		Gates: append([]Gate(nil), c.Gates...),
		PIs:   append([]int(nil), c.PIs...),
		POs:   append([]int(nil), c.POs...),
	}
	poSet := make(map[int]bool, len(nc.POs))
	for _, id := range nc.POs {
		poSet[id] = true
	}
	for i := range nc.Gates {
		g := &nc.Gates[i]
		if g.Type != DFF {
			continue
		}
		// The driver becomes a pseudo-PO (its path must settle in a cycle).
		d := int(g.Fanin[0])
		driver := &nc.Gates[d]
		driver.Fanout = withoutID(driver.Fanout, i)
		if !poSet[d] {
			nc.POs = append(nc.POs, d)
			poSet[d] = true
		}
		// The flop output becomes a pseudo-PI feeding its old fanouts.
		g.Type = Input
		g.Fanin = nil
		nc.PIs = append(nc.PIs, i)
		delete(poSet, i) // a DFF listed as PO is no longer a timing endpoint
		if idx := indexOf(nc.POs, i); idx >= 0 {
			nc.POs = append(nc.POs[:idx], nc.POs[idx+1:]...)
		}
	}
	if err := nc.Validate(); err != nil {
		return nil, fmt.Errorf("after DFF cut: %w", err)
	}
	nc.seal()
	if nc.cycleErr != nil {
		return nil, nc.cycleErr
	}
	return nc, nil
}

// withoutID returns a new slice holding s's elements other than id.
func withoutID(s []int32, id int) []int32 {
	out := make([]int32, 0, len(s))
	for _, v := range s {
		if int(v) != id {
			out = append(out, v)
		}
	}
	return out
}

func indexOf(s []int, id int) int {
	for i, v := range s {
		if v == id {
			return i
		}
	}
	return -1
}

// LogicIDs returns the IDs of all logic gates in topological order.
func (c *Circuit) LogicIDs() ([]int, error) {
	s, err := c.CSR()
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(s.Order))
	for _, id := range s.Order {
		if s.IsLogic[id] {
			ids = append(ids, int(id))
		}
	}
	return ids, nil
}
