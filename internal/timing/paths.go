package timing

import "sort"

// K most-critical path enumeration, the role of the modified Ju–Saleh
// machinery in the paper (with path criticality redefined from gate count to
// fanout sum). Earlier revisions ran a best-first search over partial-path
// states, which materializes a heap of every frontier extension — memory
// grows with the number of partial paths touched, which is exponential in
// depth on reconvergent networks long before k paths complete. The streaming
// form below instead runs one levelized dynamic-programming sweep keeping at
// most k prefix records per gate, so memory is O(n·k) flat arrays no matter
// how many paths the network has.
//
// Soundness of the per-gate truncation: a complete path ending at gate t IS a
// prefix at t, and if some path P through gate g ranks below k among g's
// prefixes, then the ≥k better prefixes at g each extend with P's own suffix
// into a complete path at least as critical — so P cannot be in the global
// top k and dropping it is safe. Distinctness is structural: every record
// descends from a unique (parent record, gate) pair, so no two records
// reconstruct the same gate sequence.

// pathRec is one prefix record: a start-to-gate path with criticality acc,
// reconstructed by following parent indices through the shared arena.
type pathRec struct {
	gate   int32
	parent int32 // arena index of the fanin's record, or -1 at a path start
	acc    int32 // criticality of the prefix, inclusive of gate
}

// KBestPaths enumerates up to k complete input-to-output paths in
// non-increasing order of criticality, each as logic gate IDs in
// input-to-output order.
func (a *Analysis) KBestPaths(k int) [][]int {
	arena, ends := a.streamPaths(k)
	if len(ends) == 0 {
		return nil
	}
	out := make([][]int, 0, len(ends))
	for _, e := range ends {
		var rev []int
		for cur := e; cur >= 0; cur = arena[cur].parent {
			rev = append(rev, int(arena[cur].gate))
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		out = append(out, rev)
	}
	return out
}

// KBestCriticalities returns only the criticalities of the up-to-k most
// critical paths, non-increasing — the whole-distribution statistic Procedure
// 1 reporting needs, without reconstructing a single gate sequence.
func (a *Analysis) KBestCriticalities(k int) []int {
	arena, ends := a.streamPaths(k)
	out := make([]int, len(ends))
	for i, e := range ends {
		out[i] = int(arena[e].acc)
	}
	return out
}

// streamPaths runs the levelized sweep and returns the record arena plus the
// arena indices of the top-k complete paths, ordered by (criticality desc,
// then discovery order — terminal gates in topological sequence).
func (a *Analysis) streamPaths(k int) (arena []pathRec, ends []int32) {
	if k <= 0 {
		return nil, nil
	}
	cs := a.cs
	n := cs.N()
	// Survivor lists live in one flat index arena: gate id's records are
	// listIdx[listStart[id]:listEnd[id]], sorted by acc descending. Truncated
	// candidates are value scratch and never reach the record arena, so the
	// arena holds at most k records per gate.
	listStart := make([]int32, n)
	listEnd := make([]int32, n)
	var listIdx []int32
	var cand []pathRec
	for _, id := range cs.Order {
		if !cs.IsLogic[id] {
			continue
		}
		cand = cand[:0]
		// A path starts here when at least one fanin is a non-logic gate.
		fed := false
		for _, f := range cs.Fanins(id) {
			if !cs.IsLogic[f] {
				fed = true
				break
			}
		}
		if fed {
			cand = append(cand, pathRec{gate: id, parent: -1, acc: int32(a.FoEff[id])})
		}
		// Extend every logic fanin's surviving prefixes through this gate.
		for _, f := range cs.Fanins(id) {
			for _, rec := range listIdx[listStart[f]:listEnd[f]] {
				cand = append(cand, pathRec{gate: id, parent: rec, acc: arena[rec].acc + int32(a.FoEff[id])})
			}
		}
		if len(cand) == 0 {
			continue
		}
		// Keep the k most critical prefixes; the stable sort makes ties
		// resolve by fanin declaration order, deterministically.
		sort.SliceStable(cand, func(x, y int) bool { return cand[x].acc > cand[y].acc })
		if len(cand) > k {
			cand = cand[:k]
		}
		listStart[id] = int32(len(listIdx))
		for _, r := range cand {
			arena = append(arena, r)
			listIdx = append(listIdx, int32(len(arena)-1))
		}
		listEnd[id] = int32(len(listIdx))
	}
	// Complete paths end at primary outputs and at fanout-free gates.
	for _, id := range cs.Order {
		if !cs.IsLogic[id] {
			continue
		}
		if a.cs.IsPO[id] || cs.NumFanout(id) == 0 {
			ends = append(ends, listIdx[listStart[id]:listEnd[id]]...)
		}
	}
	sort.SliceStable(ends, func(x, y int) bool {
		return arena[ends[x]].acc > arena[ends[y]].acc
	})
	if len(ends) > k {
		ends = ends[:k]
	}
	return arena, ends
}
