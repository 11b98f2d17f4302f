package circuit

import "fmt"

// PruneDead returns a copy of the circuit with every logic gate that cannot
// reach a primary output removed (dead logic — typical debris after cutting
// flops whose cones feed nothing, or after manual netlist edits). Primary
// inputs are kept even when unused, preserving the module interface.
// Returns the new circuit and the number of gates removed.
func PruneDead(c *Circuit) (*Circuit, int, error) {
	cs, err := c.CSR()
	if err != nil {
		return nil, 0, err
	}
	live := make([]bool, c.N())
	for _, id := range c.POs {
		live[id] = true
	}
	for i := len(cs.Order) - 1; i >= 0; i-- {
		id := cs.Order[i]
		if !live[id] {
			continue
		}
		for _, f := range c.Gates[id].Fanin {
			live[f] = true
		}
	}
	b := NewBuilder(c.Name)
	newID := make([]int, c.N())
	removed := 0
	for _, id := range cs.Order {
		g := &c.Gates[id]
		switch {
		case g.Type == Input:
			newID[id] = b.Input(g.Name) // interface preserved
		case !live[id]:
			removed++
		default:
			fanin := make([]int, len(g.Fanin))
			for i, f := range g.Fanin {
				fanin[i] = newID[f]
			}
			newID[id] = b.Gate(g.Type, g.Name, fanin...)
		}
	}
	for _, po := range c.POs {
		b.Output(newID[po])
	}
	nc, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return nc, removed, nil
}

// InsertBuffers returns a copy of the circuit in which every net with more
// than maxFanout sinks is driven through a balanced tree of BUF gates, so no
// gate (or inserted buffer) drives more than maxFanout internal sinks. The
// transform preserves logic function exactly (buffers are transparent) and
// is the classical remedy for the high-fanout hubs that concentrate both
// delay and criticality; the optimizer can then size the buffer tree instead
// of one overloaded driver. The primary-output marker stays on the original
// gate. Returns the new circuit and the number of buffers inserted.
func InsertBuffers(c *Circuit, maxFanout int) (*Circuit, int, error) {
	if maxFanout < 2 {
		return nil, 0, fmt.Errorf("circuit: maxFanout %d must be at least 2", maxFanout)
	}
	if c.IsSequential() {
		return nil, 0, fmt.Errorf("circuit: %q is sequential; cut DFFs before buffering", c.Name)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, 0, err
	}

	b := NewBuilder(c.Name + "+buf")
	newID := make([]int, c.N())      // original gate -> its new ID
	redirect := make(map[[2]int]int) // (orig driver, orig consumer) -> buffer ID
	buffers := 0

	// buildTree gives each consumer in sinks a source: either src directly
	// (≤ maxFanout sinks) or a level of at most maxFanout buffers, each
	// handling a chunk of the sinks recursively — arbitrarily large fanouts
	// become trees of depth ⌈log_maxFanout(fanout)⌉.
	var buildTree func(origDriver, src int, sinks []int32)
	buildTree = func(origDriver, src int, sinks []int32) {
		if len(sinks) <= maxFanout {
			for _, s := range sinks {
				redirect[[2]int{origDriver, int(s)}] = src
			}
			return
		}
		groups := (len(sinks) + maxFanout - 1) / maxFanout
		if groups > maxFanout {
			groups = maxFanout
		}
		for g := 0; g < groups; g++ {
			lo := g * len(sinks) / groups
			hi := (g + 1) * len(sinks) / groups
			buf := b.Gate(Buf, fmt.Sprintf("buf%d", buffers), src)
			buffers++
			buildTree(origDriver, buf, sinks[lo:hi])
		}
	}

	for _, id := range cs.Order {
		g := &c.Gates[id]
		if g.Type == Input {
			newID[id] = b.Input(g.Name)
		} else {
			fanin := make([]int, len(g.Fanin))
			for i, f := range g.Fanin {
				if buf, ok := redirect[[2]int{int(f), int(id)}]; ok {
					fanin[i] = buf
				} else {
					fanin[i] = newID[f]
				}
			}
			newID[id] = b.Gate(g.Type, g.Name, fanin...)
		}
		if cs.NumFanout(id) > maxFanout {
			buildTree(int(id), newID[id], cs.Fanouts(id))
		}
	}
	for _, po := range c.POs {
		b.Output(newID[po])
	}
	nc, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return nc, buffers, nil
}
