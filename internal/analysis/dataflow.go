package analysis

// Forward runs a forward dataflow fixpoint over a CFG. The framework is
// generic in the state type S: the analyzer supplies the entry state, a
// per-block transfer function (fold your per-node logic over block.Nodes),
// the meet operator joining states at control-flow merges (union for a
// may-analysis, intersection/AND for a must-analysis) and an equality test
// that bounds the iteration. Only blocks reachable from Entry participate;
// the returned map gives the fixpoint state at block entry, with unreachable
// blocks absent.
//
// Termination is the analyzer's responsibility in the usual lattice sense
// (meet monotone, finite height); a generous iteration budget cuts off a
// non-converging client instead of hanging the tool.
func Forward[S any](c *CFG, entry S, transfer func(*Block, S) S, meet func(S, S) S, equal func(S, S) bool) map[*Block]S {
	in := map[*Block]S{c.Entry: entry}
	out := make(map[*Block]S)

	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	budget := 1000 * (len(c.Blocks) + 1)
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		queued[b] = false

		o := transfer(b, in[b])
		if prev, ok := out[b]; ok && equal(prev, o) {
			continue
		}
		out[b] = o
		for _, s := range b.Succs {
			ns, seen := in[s]
			if !seen {
				ns = o
			} else {
				ns = meet(ns, o)
				if equal(ns, in[s]) {
					continue
				}
			}
			in[s] = ns
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}
