package timing

import (
	"fmt"
	"sort"
	"testing"

	"cmosopt/internal/netgen"
)

// allPathsExhaustive is the reference enumerator for the streaming top-K
// sweep: a plain DFS that materializes every complete input-to-output path
// (a start is an input-fed logic gate, an end is a PO or fanout-free logic
// gate) with its criticality. Exponential — test-only, on small circuits.
func allPathsExhaustive(a *Analysis) [][]int {
	c := a.C
	var out [][]int
	var path []int
	var walk func(id int)
	walk = func(id int) {
		path = append(path, id)
		end := a.cs.NumFanout(int32(id)) == 0 || a.cs.IsPO[id]
		if end {
			out = append(out, append([]int(nil), path...))
		}
		for _, f := range a.cs.Fanouts(int32(id)) {
			if c.Gates[f].IsLogic() {
				walk(int(f))
			}
		}
		path = path[:len(path)-1]
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if !g.IsLogic() {
			continue
		}
		fed := false
		for _, f := range g.Fanin {
			if !c.Gates[f].IsLogic() {
				fed = true
				break
			}
		}
		if fed {
			walk(i)
		}
	}
	return out
}

func pathKey(p []int) string {
	key := ""
	for _, id := range p {
		key += fmt.Sprintf("%d,", id)
	}
	return key
}

// TestKBestPathsMatchesExhaustive cross-checks the streaming enumerator
// against full materialization on a spread of random circuits: for every k,
// the returned criticality sequence must equal the top k of the exhaustive
// sorted list, and every returned path must be a genuine path of that
// criticality.
func TestKBestPathsMatchesExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := netgen.Config{
			Name:  fmt.Sprintf("px%d", seed),
			Gates: 25 + int(seed)*7, Depth: 4 + int(seed)%4,
			PIs: 3, POs: 2,
		}
		c, err := netgen.Generate(cfg, 100+seed)
		if err != nil {
			t.Fatal(err)
		}
		a := analysis(t, c)

		ref := allPathsExhaustive(a)
		refCrit := make([]int, len(ref))
		valid := map[string]int{} // path key -> criticality
		for i, p := range ref {
			refCrit[i] = a.PathCriticality(p)
			valid[pathKey(p)] = refCrit[i]
		}
		sort.Sort(sort.Reverse(sort.IntSlice(refCrit)))

		for _, k := range []int{1, 2, 3, 5, 10, len(ref), len(ref) + 50} {
			paths := a.KBestPaths(k)
			crits := a.KBestCriticalities(k)
			wantN := k
			if wantN > len(ref) {
				wantN = len(ref)
			}
			if len(paths) != wantN || len(crits) != wantN {
				t.Fatalf("%s k=%d: got %d paths / %d crits, want %d (of %d total)",
					cfg.Name, k, len(paths), len(crits), wantN, len(ref))
			}
			seen := map[string]bool{}
			for i, p := range paths {
				pc := a.PathCriticality(p)
				if pc != refCrit[i] {
					t.Fatalf("%s k=%d: path %d criticality %d, want %d (exhaustive rank)",
						cfg.Name, k, i, pc, refCrit[i])
				}
				if crits[i] != pc {
					t.Fatalf("%s k=%d: KBestCriticalities[%d] = %d, KBestPaths says %d",
						cfg.Name, k, i, crits[i], pc)
				}
				key := pathKey(p)
				want, ok := valid[key]
				if !ok {
					t.Fatalf("%s k=%d: returned sequence %v is not a complete path", cfg.Name, k, p)
				}
				if want != pc {
					t.Fatalf("%s k=%d: path %v criticality mismatch", cfg.Name, k, p)
				}
				if seen[key] {
					t.Fatalf("%s k=%d: duplicate path %v", cfg.Name, k, p)
				}
				seen[key] = true
			}
		}
	}
}

// TestStreamPathsArenaBounded pins the O(n·k) memory contract: the record
// arena never holds more than k survivors per logic gate, no matter how many
// partial paths the network has.
func TestStreamPathsArenaBounded(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "ab", Gates: 400, Depth: 12, PIs: 6, POs: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	for _, k := range []int{1, 4, 16} {
		arena, _ := a.streamPaths(k)
		if max := c.NumLogic() * k; len(arena) > max {
			t.Fatalf("k=%d: arena holds %d records, bound is %d", k, len(arena), max)
		}
	}
}

// TestKBestCriticalitiesLarge sanity-checks the criticalities-only variant on
// a circuit big enough that materializing all paths would be prohibitive.
func TestKBestCriticalitiesLarge(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "kl", Gates: 3000, Depth: 30, PIs: 40, POs: 30}, 9)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	crits := a.KBestCriticalities(100)
	if len(crits) != 100 {
		t.Fatalf("got %d criticalities, want 100", len(crits))
	}
	if crits[0] != a.MaxCriticality() {
		t.Fatalf("top criticality %d != MaxCriticality %d", crits[0], a.MaxCriticality())
	}
	for i := 1; i < len(crits); i++ {
		if crits[i] > crits[i-1] {
			t.Fatalf("criticalities out of order at %d: %d > %d", i, crits[i], crits[i-1])
		}
	}
}

// TestKBestPathsStructure checks returned paths against the raw circuit
// structure (edges exist, ends at a PO or sink).
func TestKBestPathsStructure(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "st", Gates: 200, Depth: 10, PIs: 5, POs: 4}, 41)
	if err != nil {
		t.Fatal(err)
	}
	a := analysis(t, c)
	for _, p := range a.KBestPaths(50) {
		for i := 1; i < len(p); i++ {
			found := false
			for _, f := range c.Gate(p[i]).Fanin {
				if int(f) == p[i-1] {
					found = true
				}
			}
			if !found {
				t.Fatalf("path %v: %d→%d is not an edge", p, p[i-1], p[i])
			}
		}
		last := c.Gate(p[len(p)-1])
		if a.cs.NumFanout(int32(last.ID)) != 0 && !a.cs.IsPO[last.ID] {
			t.Fatalf("path %v ends mid-network at %q", p, last.Name)
		}
	}
}
