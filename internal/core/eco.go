package core

import (
	"fmt"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
)

// ECO (engineering-change-order) flow: after a small netlist edit, a full
// Procedure 2 rerun wastes the previous solution. WarmStart transplants the
// prior design onto the edited circuit by gate name — unchanged gates keep
// their threshold and width, new gates start at the prior solution's
// threshold and minimum width — then re-solves only the widths against the
// new circuit's Procedure 1 budgets. When the transplant cannot be made
// feasible, it falls back to a full joint optimization.
//
// Returns the result, the number of gates that kept their sizing, and
// whether the fast path (no full re-optimization) sufficed.
func (p *Problem) WarmStart(prevC *circuit.Circuit, prev *design.Assignment, opts Options) (*Result, int, bool, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, 0, false, err
	}
	if prevC == nil || prev == nil {
		return nil, 0, false, fmt.Errorf("core: WarmStart needs the previous circuit and design")
	}
	if len(prev.Vts) != prevC.N() {
		return nil, 0, false, fmt.Errorf("core: previous design sized %d, previous circuit has %d gates", len(prev.Vts), prevC.N())
	}
	evals0 := p.Eval.FullEvalEquivalents()

	// Default threshold for new gates: the previous design's dominant value.
	// A tie goes to the lower threshold, the faster device, so the result
	// does not depend on map order and the warm start is likelier to meet
	// timing.
	defVt := p.Tech.VtsMin
	if len(prev.Vts) > 0 {
		counts := map[float64]int{}
		for i := range prevC.Gates {
			if prevC.Gates[i].IsLogic() {
				counts[prev.Vts[i]]++
			}
		}
		best := 0
		for v, n := range counts {
			if n > best || (n == best && v < defVt) {
				best, defVt = n, v
			}
		}
	}

	a := design.Uniform(p.C.N(), prev.Vdd, defVt, p.Tech.WMin)
	reused := 0
	for i := range p.C.Gates {
		g := &p.C.Gates[i]
		if !g.IsLogic() {
			continue
		}
		old := prevC.GateByName(g.Name)
		if old == nil || !old.IsLogic() {
			continue
		}
		a.Vts[i] = prev.Vts[old.ID]
		a.W[i] = prev.W[old.ID]
		reused++
	}

	// Fast path: a couple of width sweeps from the transplanted state.
	if p.solveWidths(a, opts.M, opts.WidthPasses) {
		if err := p.Canceled(); err != nil {
			return nil, reused, false, err
		}
		res := p.finishResult("eco-warm", a, true, evals0)
		if res.Feasible {
			return res, reused, true, nil
		}
	}
	// Fall back to the full flow.
	res, err := p.OptimizeJoint(opts)
	if err != nil {
		return nil, reused, false, err
	}
	res.Method = "eco-full"
	return res, reused, false, nil
}
