package circuit

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// legacyTopoOrder is the pre-CSR Kahn FIFO walk over the Gate slices, kept
// here as the reference implementation: the CSR levelized order must
// reproduce it element for element on every Validate-passing circuit.
func legacyTopoOrder(c *Circuit) ([]int, error) {
	n := len(c.Gates)
	indeg := make([]int, n)
	for i := range c.Gates {
		indeg[i] = len(c.Gates[i].Fanin)
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, f := range c.Gates[order[head]].Fanout {
			indeg[f]--
			if indeg[f] == 0 {
				order = append(order, int(f))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cycle")
	}
	return order, nil
}

// legacyLevels is the pre-CSR per-gate level computation.
func legacyLevels(c *Circuit, order []int) ([]int, int) {
	lv := make([]int, len(c.Gates))
	depth := 0
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type == Input {
			lv[id] = 0
			continue
		}
		maxIn := 0
		for _, f := range g.Fanin {
			if lv[f] > maxIn {
				maxIn = lv[f]
			}
		}
		lv[id] = maxIn + 1
		if lv[id] > depth {
			depth = lv[id]
		}
	}
	return lv, depth
}

// randomDAG builds a random layered circuit via the Builder: nIn inputs, then
// nGates logic gates each drawing 1–3 fanins from earlier gates.
func randomDAG(t *testing.T, seed int64, nIn, nGates int) *Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(fmt.Sprintf("rand-%d", seed))
	ids := make([]int, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		ids = append(ids, b.Input(fmt.Sprintf("in%d", i)))
	}
	types := []GateType{And, Or, Nand, Nor, Xor, Not, Buf}
	for i := 0; i < nGates; i++ {
		tp := types[rng.Intn(len(types))]
		nf := 1
		if tp != Not && tp != Buf {
			nf = 2 + rng.Intn(2)
		}
		fanin := make([]int, 0, nf)
		for len(fanin) < nf {
			cand := ids[rng.Intn(len(ids))]
			dup := false
			for _, f := range fanin {
				if f == cand {
					dup = true
					break
				}
			}
			if !dup {
				fanin = append(fanin, cand)
			}
		}
		ids = append(ids, b.Gate(tp, fmt.Sprintf("g%d", i), fanin...))
	}
	// Mark every sink as an output so the circuit is well-formed.
	for _, id := range ids {
		b.Output(id)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("randomDAG(%d): %v", seed, err)
	}
	return c
}

// checkCSREquivalence verifies every CSR invariant against the legacy
// slice-walk reference on one circuit.
func checkCSREquivalence(t *testing.T, c *Circuit) {
	t.Helper()
	s, err := c.CSR()
	if err != nil {
		t.Fatalf("%s: CSR: %v", c.Name, err)
	}
	n := c.N()
	if s.N() != n {
		t.Fatalf("%s: CSR.N() = %d, want %d", c.Name, s.N(), n)
	}

	// Topological order matches the legacy Kahn FIFO walk exactly.
	want, err := legacyTopoOrder(c)
	if err != nil {
		t.Fatalf("%s: legacy topo: %v", c.Name, err)
	}
	if len(s.Order) != len(want) {
		t.Fatalf("%s: order length %d, want %d", c.Name, len(s.Order), len(want))
	}
	for i := range want {
		if int(s.Order[i]) != want[i] {
			t.Fatalf("%s: CSR.Order[%d] = %d, want %d", c.Name, i, s.Order[i], want[i])
		}
	}

	// Levels and depth match the legacy computation.
	wantLv, wantDepth := legacyLevels(c, want)
	gotDepth, err := c.Depth()
	if err != nil {
		t.Fatalf("%s: Depth: %v", c.Name, err)
	}
	if gotDepth != wantDepth {
		t.Fatalf("%s: depth %d, want %d", c.Name, gotDepth, wantDepth)
	}
	for id := range wantLv {
		if int(s.Level[id]) != wantLv[id] {
			t.Fatalf("%s: CSR.Level[%d] = %d, want %d", c.Name, id, s.Level[id], wantLv[id])
		}
	}

	// Fanin/fanout views reproduce the Gate slices in declaration order.
	for id := range c.Gates {
		g := &c.Gates[id]
		fi := s.Fanins(int32(id))
		if len(fi) != len(g.Fanin) || s.NumFanin(int32(id)) != len(g.Fanin) {
			t.Fatalf("%s: gate %d fanin count %d, want %d", c.Name, id, len(fi), len(g.Fanin))
		}
		for j, f := range g.Fanin {
			if fi[j] != f {
				t.Fatalf("%s: gate %d fanin[%d] = %d, want %d", c.Name, id, j, fi[j], f)
			}
		}
		fo := s.Fanouts(int32(id))
		if len(fo) != len(g.Fanout) || s.NumFanout(int32(id)) != len(g.Fanout) {
			t.Fatalf("%s: gate %d fanout count %d, want %d", c.Name, id, len(fo), len(g.Fanout))
		}
		for j, f := range g.Fanout {
			if fo[j] != f {
				t.Fatalf("%s: gate %d fanout[%d] = %d, want %d", c.Name, id, j, fo[j], f)
			}
		}
		if s.IsLogic[id] != g.IsLogic() {
			t.Fatalf("%s: gate %d IsLogic %v, want %v", c.Name, id, s.IsLogic[id], g.IsLogic())
		}
	}

	// Rank is the inverse permutation of Order.
	for rank, id := range s.Order {
		if int(s.Rank[id]) != rank {
			t.Fatalf("%s: Rank[%d] = %d, want %d", c.Name, id, s.Rank[id], rank)
		}
	}

	// Level grouping: LevelStart brackets exactly the gates of each level,
	// and levels are non-decreasing along the order.
	if s.NumLevels() != s.Depth+1 {
		t.Fatalf("%s: NumLevels %d, want %d", c.Name, s.NumLevels(), s.Depth+1)
	}
	for l := 0; l < s.NumLevels(); l++ {
		for _, id := range s.LevelGates(l) {
			if int(s.Level[id]) != l {
				t.Fatalf("%s: LevelGates(%d) contains gate %d of level %d", c.Name, l, id, s.Level[id])
			}
		}
	}
	total := 0
	for l := 0; l < s.NumLevels(); l++ {
		total += len(s.LevelGates(l))
	}
	if total != n {
		t.Fatalf("%s: level groups cover %d gates, want %d", c.Name, total, n)
	}
}

func TestCSRMatchesLegacyWalkBuilder(t *testing.T) {
	// A small hand-built circuit with reconvergence and a multi-PO sink.
	b := NewBuilder("hand")
	a := b.Input("a")
	bb := b.Input("b")
	cIn := b.Input("c")
	n1 := b.Gate(Nand, "n1", a, bb)
	n2 := b.Gate(Nor, "n2", bb, cIn)
	n3 := b.Gate(And, "n3", n1, n2)
	n4 := b.Gate(Not, "n4", n3)
	b.Output(n3)
	b.Output(n4)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkCSREquivalence(t, c)
}

func TestCSRMatchesLegacyWalkRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := randomDAG(t, seed, 4+int(seed)%7, 50+int(seed)*37)
		checkCSREquivalence(t, c)
	}
}

func TestCSRCountingSortFallback(t *testing.T) {
	// A hand-assembled circuit whose Kahn order is NOT level-monotone: gate
	// "late" has zero fanins but is a logic gate (degenerate; Validate rejects
	// it, but buildCSR must still levelize correctly via the fallback).
	c := &Circuit{
		Name: "degenerate",
		Gates: []Gate{
			{ID: 0, Name: "i", Type: Input},
			{ID: 1, Name: "g", Type: Not, Fanin: []int32{0}, Fanout: []int32{2}},
			{ID: 2, Name: "h", Type: Not, Fanin: []int32{1}},
			{ID: 3, Name: "late", Type: And}, // zero-fanin logic gate: level 1, but Kahn emits it at the front
		},
		PIs: []int{0},
		POs: []int{2, 3},
	}
	c.Gates[0].Fanout = []int32{1}
	c.seal()
	s, err := c.CSR()
	if err != nil {
		t.Fatal(err)
	}
	// The fallback must produce a level-sorted topological order.
	prev := int32(0)
	for _, id := range s.Order {
		if s.Level[id] < prev {
			t.Fatalf("order not level-sorted: gate %d at level %d after level %d", id, s.Level[id], prev)
		}
		prev = s.Level[id]
	}
	for rank, id := range s.Order {
		if int(s.Rank[id]) != rank {
			t.Fatalf("Rank[%d] = %d, want %d after fallback", id, s.Rank[id], rank)
		}
	}
	// Topological: every fanin must precede its gate.
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			if s.Rank[f] >= s.Rank[id] {
				t.Fatalf("fanin %d does not precede gate %d", f, id)
			}
		}
	}
}

func TestCSRCycleError(t *testing.T) {
	c := &Circuit{
		Name: "cyclic",
		Gates: []Gate{
			{ID: 0, Name: "i", Type: Input, Fanout: []int32{1}},
			{ID: 1, Name: "a", Type: And, Fanin: []int32{0, 2}, Fanout: []int32{2}},
			{ID: 2, Name: "b", Type: Not, Fanin: []int32{1}, Fanout: []int32{1}},
		},
		PIs: []int{0},
	}
	c.seal()
	if _, err := c.CSR(); err == nil {
		t.Fatal("CSR on a cyclic circuit: want error, got nil")
	}
}

// TestSealedEdgesAreCSRViews checks that the CSR is the only stored
// topology: on every sealed circuit, each gate's Fanin/Fanout is a
// capacity-capped view of its own range of the CSR edge lists.
func TestSealedEdgesAreCSRViews(t *testing.T) {
	built := randomDAG(t, 3, 5, 60)
	seq := seqCircuit(t) // cyclic until cut: its edges are sealed all the same
	cut, err := seq.Combinational()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVerilog(&sb, built); err != nil {
		t.Fatal(err)
	}
	verilog, err := ParseVerilogString("v", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *Circuit, id int, dir string, view, list, start []int32) {
		t.Helper()
		lo, hi := start[id], start[id+1]
		if len(view) != int(hi-lo) || cap(view) != len(view) {
			t.Fatalf("%s: gate %d %s len %d cap %d, want both %d", c.Name, id, dir, len(view), cap(view), hi-lo)
		}
		if len(view) > 0 && &view[0] != &list[lo] {
			t.Fatalf("%s: gate %d %s does not share the CSR list", c.Name, id, dir)
		}
	}
	for _, c := range []*Circuit{built, seq, cut, verilog} {
		s := c.csr
		if s == nil {
			t.Fatalf("%s: not sealed", c.Name)
		}
		for id := range c.Gates {
			check(c, id, "fanin", c.Gates[id].Fanin, s.FaninList, s.FaninStart)
			check(c, id, "fanout", c.Gates[id].Fanout, s.FanoutList, s.FanoutStart)
		}
	}
}

// TestConcurrentReadsOnFreshCircuit reads a freshly parsed circuit from
// several goroutines with no warm-up. Under -race it fails if any accessor
// fills a cache without synchronization.
func TestConcurrentReadsOnFreshCircuit(t *testing.T) {
	c, err := ParseBenchString("fresh", BenchString(randomDAG(t, 5, 6, 80)))
	if err != nil {
		t.Fatal(err)
	}
	last := c.Gates[c.N()-1].Name
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.CSR(); err != nil {
				t.Error(err)
			}
			if _, err := c.Depth(); err != nil {
				t.Error(err)
			}
			if _, err := c.LogicIDs(); err != nil {
				t.Error(err)
			}
			if c.GateByName(last) == nil {
				t.Errorf("GateByName(%q) = nil", last)
			}
		}()
	}
	wg.Wait()
}

func TestGateByNameIndexed(t *testing.T) {
	c := randomDAG(t, 7, 5, 40)
	for i := range c.Gates {
		g := c.GateByName(c.Gates[i].Name)
		if g == nil || g.ID != i {
			t.Fatalf("GateByName(%q): got %v, want gate %d", c.Gates[i].Name, g, i)
		}
	}
	if g := c.GateByName("no-such-gate"); g != nil {
		t.Fatalf("GateByName of a missing name: got %v, want nil", g)
	}
}

func TestGateByNameFirstWinsOnDuplicates(t *testing.T) {
	// Hand-assembled duplicate names (Validate rejects these; the index must
	// still behave like the legacy linear scan: first occurrence wins).
	c := &Circuit{
		Name: "dups",
		Gates: []Gate{
			{ID: 0, Name: "x", Type: Input, Fanout: []int32{1}},
			{ID: 1, Name: "x", Type: Not, Fanin: []int32{0}},
		},
		PIs: []int{0},
	}
	if g := c.GateByName("x"); g == nil || g.ID != 0 {
		t.Fatalf("duplicate name lookup: got %v, want gate 0", g)
	}
}

func TestDuplicateNameRejectedAtBuild(t *testing.T) {
	b := NewBuilder("dup")
	a := b.Input("a")
	b.Gate(Not, "a", a) // same name as the input
	if _, err := b.Build(); err == nil {
		t.Fatal("Builder.Build with duplicate names: want error, got nil")
	}

	if _, err := ParseBenchString("dup", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"); err == nil {
		t.Fatal("ParseBench with duplicate definitions: want error, got nil")
	}
}

func TestInternedNamesShareBacking(t *testing.T) {
	c := randomDAG(t, 11, 4, 30)
	// All names must be findable and correct after interning (seal ran in
	// Build); spot-check content round-trips.
	for i := range c.Gates {
		want := c.Gates[i].Name
		if got := c.GateByName(want); got == nil || got.Name != want {
			t.Fatalf("interned name %q lookup failed", want)
		}
	}
}
