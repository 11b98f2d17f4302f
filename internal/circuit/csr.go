package circuit

import (
	"fmt"
	"strings"
)

// CSR is the compact struct-of-arrays (compressed-sparse-row) view of a
// Circuit: the whole topology flattened into a handful of int32 arrays, plus
// the levelized topological order every sweep walks. It exists so the hot
// analysis paths (full delay sweeps, incremental re-timing, criticality
// passes, streaming path enumeration) touch only dense, cache-friendly arrays
// instead of chasing per-gate slice headers — the difference between hundreds
// and a million gates.
//
// A CSR is the only stored topology of its Circuit: seal builds it once when
// the circuit is constructed, each Gate.Fanin is a view of FaninList, and
// FanoutList is derived from the fanins and held nowhere else. It is
// immutable and shared by every engine clone. All arrays are indexed by gate
// ID. Callers must treat every exposed slice as read-only.
type CSR struct {
	// FaninStart/FaninList: gate id's fanins are
	// FaninList[FaninStart[id]:FaninStart[id+1]], in declaration order —
	// the same backing array as Gate.Fanin. FanoutStart/FanoutList hold the
	// fanouts the same way: gate id's consumers in ascending ID, a consumer
	// listed once per fanin pin it connects to id.
	FaninStart  []int32
	FaninList   []int32
	FanoutStart []int32
	FanoutList  []int32

	// Order is the topological order of all gate IDs, grouped by level:
	// Order[LevelStart[l]:LevelStart[l+1]] holds the gates of level l, in
	// the same relative sequence Kahn's FIFO walk produces. Rank is the
	// inverse permutation; Level[id] is the length of the longest chain of
	// logic gates from any input up to and including gate id (inputs are 0,
	// a gate fed only by inputs is 1).
	Order      []int32
	Rank       []int32
	Level      []int32
	LevelStart []int32

	// IsLogic[id] caches Gate.IsLogic so sweeps skip the Gate deref.
	IsLogic []bool
	// IsPO[id] reports whether gate id is listed in Circuit.POs.
	IsPO []bool

	// Depth is the maximum level (the circuit's logic depth).
	Depth int
}

// N returns the number of gates.
func (s *CSR) N() int { return len(s.FaninStart) - 1 }

// NumLevels returns the number of level groups (Depth+1, level 0 = inputs).
func (s *CSR) NumLevels() int { return len(s.LevelStart) - 1 }

// Fanins returns gate id's fanin IDs (read-only, declaration order).
func (s *CSR) Fanins(id int32) []int32 {
	return s.FaninList[s.FaninStart[id]:s.FaninStart[id+1]]
}

// Fanouts returns gate id's fanout IDs (read-only, ascending).
func (s *CSR) Fanouts(id int32) []int32 {
	return s.FanoutList[s.FanoutStart[id]:s.FanoutStart[id+1]]
}

// NumFanin returns gate id's fanin count without materializing the slice.
func (s *CSR) NumFanin(id int32) int {
	return int(s.FaninStart[id+1] - s.FaninStart[id])
}

// NumFanout returns gate id's fanout count (f_oi in the paper). A primary
// output with no internal fanout reports 0; the power and delay models add
// its one off-module load.
func (s *CSR) NumFanout(id int32) int {
	return int(s.FanoutStart[id+1] - s.FanoutStart[id])
}

// LevelGates returns the gate IDs of one level, in topological-order sequence.
func (s *CSR) LevelGates(l int) []int32 {
	return s.Order[s.LevelStart[l]:s.LevelStart[l+1]]
}

// CSR returns the circuit's compact struct-of-arrays view, built when the
// circuit was constructed. It fails on a combinational cycle (cut DFFs with
// Combinational first) and on a Circuit assembled by hand rather than by a
// Builder or a parser.
func (c *Circuit) CSR() (*CSR, error) {
	switch {
	case c.cycleErr != nil:
		return nil, c.cycleErr
	case c.csr == nil:
		return nil, fmt.Errorf("circuit %q: not sealed; build it with a Builder or a parser", c.Name)
	}
	return c.csr, nil
}

// seal finalizes a freshly constructed, validated circuit: it interns the
// names, flattens the fanins into the CSR list with every Gate.Fanin
// re-pointed at its slice of it, derives the fanout lists, and levelizes the
// network — or, for a cyclic one (a raw sequential netlist with a DFF loop),
// records the error CSR reports. After seal only the name index (see
// GateByName) is ever written.
func (c *Circuit) seal() {
	c.internNames()
	c.csr = flatten(c)
	c.cycleErr = c.csr.levelize(c)
}

// flatten copies every gate's fanins into the CSR fanin list and re-points
// each Gate.Fanin at its own capacity-capped subslice of it, so a stray
// append can never bleed into a neighbor and a million-gate circuit holds
// one fanin allocation instead of millions. It then derives the fanout lists
// by a counting pass: each driver's consumers in ascending ID, one entry per
// fanin pin.
func flatten(c *Circuit) *CSR {
	n := len(c.Gates)
	nf := 0
	for i := range c.Gates {
		nf += len(c.Gates[i].Fanin)
	}
	s := &CSR{
		FaninStart:  make([]int32, n+1),
		FaninList:   make([]int32, 0, nf),
		FanoutStart: make([]int32, n+1),
		FanoutList:  make([]int32, nf),
		IsLogic:     make([]bool, n),
		IsPO:        make([]bool, n),
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		lo := len(s.FaninList)
		s.FaninStart[i] = int32(lo)
		if len(g.Fanin) > 0 { // an input keeps a nil Fanin
			s.FaninList = append(s.FaninList, g.Fanin...)
			g.Fanin = s.FaninList[lo:len(s.FaninList):len(s.FaninList)]
		}
		for _, f := range g.Fanin {
			s.FanoutStart[f+1]++
		}
		s.IsLogic[i] = g.IsLogic()
	}
	s.FaninStart[n] = int32(nf)
	for i := range n {
		s.FanoutStart[i+1] += s.FanoutStart[i]
	}
	next := append([]int32(nil), s.FanoutStart[:n]...) // each driver's fill cursor
	for id := range int32(n) {
		for _, f := range s.Fanins(id) {
			s.FanoutList[next[f]] = id
			next[f]++
		}
	}
	for _, id := range c.POs {
		s.IsPO[id] = true
	}
	return s
}

// levelize computes the topological order, ranks, levels and level groups
// with Kahn's FIFO walk, or returns an error on a combinational cycle.
func (s *CSR) levelize(c *Circuit) error {
	n := s.N()
	s.Order = make([]int32, 0, n)
	s.Rank = make([]int32, n)
	s.Level = make([]int32, n)

	// Kahn FIFO over the flat arrays. The queue is the Order slice itself:
	// gates are appended as they become ready and consumed by a moving head.
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = s.FaninStart[i+1] - s.FaninStart[i]
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			s.Order = append(s.Order, int32(i))
		}
	}
	for head := 0; head < len(s.Order); head++ {
		id := s.Order[head]
		for _, f := range s.Fanouts(id) {
			indeg[f]--
			if indeg[f] == 0 {
				s.Order = append(s.Order, f)
			}
		}
	}
	if len(s.Order) != n {
		return fmt.Errorf("circuit %q: combinational cycle involving %d gates", c.Name, n-len(s.Order))
	}

	// Levels (longest logic chain; Input gates pinned to 0) and ranks.
	depth := int32(0)
	for rank, id := range s.Order {
		s.Rank[id] = int32(rank)
		if c.Gates[id].Type == Input {
			s.Level[id] = 0
			continue
		}
		maxIn := int32(0)
		for _, f := range s.Fanins(id) {
			if s.Level[f] > maxIn {
				maxIn = s.Level[f]
			}
		}
		s.Level[id] = maxIn + 1
		if s.Level[id] > depth {
			depth = s.Level[id]
		}
	}
	s.Depth = int(depth)

	// Level group boundaries. Kahn's FIFO order visits levels monotonically
	// on every circuit Validate accepts (a gate becomes ready only when its
	// max-level fanin's group is being drained), so grouping keeps the FIFO
	// order — verified here rather than assumed. Degenerate hand-built graphs
	// (a zero-fanin non-Input gate) can break monotonicity; those fall back
	// to a stable counting sort by level, which still yields a correct
	// levelized topological order.
	monotone := true
	prev := int32(0)
	for _, id := range s.Order {
		if s.Level[id] < prev {
			monotone = false
			break
		}
		prev = s.Level[id]
	}
	if !monotone {
		sorted := make([]int32, 0, n)
		for l := int32(0); l <= depth; l++ {
			for _, id := range s.Order {
				if s.Level[id] == l {
					sorted = append(sorted, id)
				}
			}
		}
		s.Order = sorted
		for rank, id := range s.Order {
			s.Rank[id] = int32(rank)
		}
	}
	s.LevelStart = make([]int32, depth+2)
	prev = 0
	for rank, id := range s.Order {
		for l := s.Level[id]; prev < l; prev++ {
			s.LevelStart[prev+1] = int32(rank)
		}
	}
	s.LevelStart[depth+1] = int32(n)
	return nil
}

// internNames re-points every gate's name at a slice of one shared backing
// string (the side table), so a million-gate circuit holds one name
// allocation instead of a million tiny ones. Each Gate.Name value is
// unchanged; only the backing storage is shared. The name→id index stays
// lazy (see GateByName).
func (c *Circuit) internNames() {
	total := 0
	for i := range c.Gates {
		total += len(c.Gates[i].Name)
	}
	var sb strings.Builder
	sb.Grow(total)
	for i := range c.Gates {
		sb.WriteString(c.Gates[i].Name)
	}
	table := sb.String()
	off := 0
	for i := range c.Gates {
		n := len(c.Gates[i].Name)
		c.Gates[i].Name = table[off : off+n]
		off += n
	}
}
