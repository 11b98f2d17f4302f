// Package timing implements the paper's §4.2 machinery: path criticality,
// enumeration of the K most critical paths in decreasing criticality (a
// modified Ju–Saleh incremental enumeration), and Procedure 1 — the
// assignment of a maximum-delay budget to every gate such that no circuit
// path exceeds the (skew-derated) cycle time.
//
// The criticality N_cj of a path is the sum of the *effective* fanouts of
// its logic gates. The paper defines N_c with raw fanout counts, assuming
// gate delay proportional to fanout; our delay model (like any real one) has
// a per-gate intrinsic component — self-loading, series stack, interconnect —
// so the effective fanout here is fanout+1 (with a gate driving no internal
// net still counting its off-module load). This keeps the budget shares of
// low-fanout gates on hub-heavy paths reachable, which the paper otherwise
// restores through its §4.2 post-processing.
//
// All sweeps in this package run over the circuit's CSR view (levelized
// struct-of-arrays, see internal/circuit), so analysis cost stays flat per
// edge at netgen's 10⁵–10⁶-gate scale.
package timing

import (
	"fmt"
	"sort"

	"cmosopt/internal/circuit"
)

// Analysis caches the per-gate criticality data of one combinational
// circuit: effective fanouts and the maximum path criticality upstream (Up)
// and downstream (Down) of every logic gate, both inclusive of the gate.
type Analysis struct {
	C     *circuit.Circuit
	FoEff []int // effective fanout per gate (max(1, fanout) for logic gates)
	Up    []int // max criticality of a path from an input up to gate i
	Down  []int // max criticality of a path from gate i down to a path end
	cs    *circuit.CSR

	// byThrough lists the logic gate IDs sorted by (Through desc, id asc),
	// built lazily by critCursor for Procedure 1's path selection.
	byThrough []int32
}

// NewAnalysis builds the criticality analysis. The circuit must be
// combinational.
func NewAnalysis(c *circuit.Circuit) (*Analysis, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("timing: circuit %q is sequential; cut DFFs first", c.Name)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		C:     c,
		FoEff: make([]int, c.N()),
		Up:    make([]int, c.N()),
		Down:  make([]int, c.N()),
		cs:    cs,
	}
	for i := range a.FoEff {
		if !cs.IsLogic[i] {
			continue
		}
		fo := cs.NumFanout(int32(i))
		if fo < 1 {
			fo = 1 // a sink still drives the module output load
		}
		a.FoEff[i] = fo + 1 // +1: the gate's intrinsic (self-loading) share
	}
	// Up: forward level sweep. Inputs contribute nothing.
	for l := 1; l < cs.NumLevels(); l++ {
		for _, id := range cs.LevelGates(l) {
			if !cs.IsLogic[id] {
				continue
			}
			best := 0
			for _, f := range cs.Fanins(id) {
				if cs.IsLogic[f] && a.Up[f] > best {
					best = a.Up[f]
				}
			}
			a.Up[id] = a.FoEff[id] + best
		}
	}
	// Down: reverse level sweep. A path may end at any gate with no fanout,
	// or at a primary output; continuing through a PO's internal fanout only
	// raises criticality, so the max is always to continue when fanout exists.
	for l := cs.NumLevels() - 1; l >= 1; l-- {
		for _, id := range cs.LevelGates(l) {
			if !cs.IsLogic[id] {
				continue
			}
			best := 0
			for _, f := range cs.Fanouts(id) {
				if a.Down[f] > best {
					best = a.Down[f]
				}
			}
			a.Down[id] = a.FoEff[id] + best
		}
	}
	return a, nil
}

// PathCriticality returns the criticality of a path given as logic gate IDs.
func (a *Analysis) PathCriticality(path []int) int {
	n := 0
	for _, id := range path {
		n += a.FoEff[id]
	}
	return n
}

// MaxCriticality returns the criticality of the most critical path in the
// network.
func (a *Analysis) MaxCriticality() int {
	best := 0
	for i, logic := range a.cs.IsLogic {
		if logic {
			// Down of input-fed gates bounds full paths; Up+Down−FoEff of any
			// gate is the max path through it, so taking max over the
			// through-criticality of all gates is equivalent.
			if th := a.Through(i); th > best {
				best = th
			}
		}
	}
	return best
}

// Through returns the criticality of the most critical full path passing
// through gate id.
func (a *Analysis) Through(id int) int {
	return a.Up[id] + a.Down[id] - a.FoEff[id]
}

// pathThrough reconstructs a most-critical path passing through the given
// gate by walking maximum-Up fanins and maximum-Down fanouts.
func (a *Analysis) pathThrough(id int) []int {
	cs := a.cs
	var upSeg []int
	for cur := int32(id); ; {
		upSeg = append(upSeg, int(cur))
		next, best := int32(-1), 0
		for _, f := range cs.Fanins(cur) {
			if cs.IsLogic[f] && a.Up[f] > best {
				best, next = a.Up[f], f
			}
		}
		if next < 0 {
			break
		}
		cur = next
	}
	// upSeg is id..input-side; reverse into path order.
	path := make([]int, 0, len(upSeg)+8)
	for i := len(upSeg) - 1; i >= 0; i-- {
		path = append(path, upSeg[i])
	}
	for cur := int32(id); ; {
		next, best := int32(-1), 0
		for _, f := range cs.Fanouts(cur) {
			if a.Down[f] > best {
				best, next = a.Down[f], f
			}
		}
		if next < 0 {
			break
		}
		path = append(path, int(next))
		cur = next
	}
	return path
}

// MostCriticalPath returns one maximally critical input-to-output path as
// logic gate IDs in input-to-output order.
func (a *Analysis) MostCriticalPath() []int {
	bestID, best := -1, -1
	for i, logic := range a.cs.IsLogic {
		if !logic {
			continue
		}
		if th := a.Through(i); th > best {
			best, bestID = th, i
		}
	}
	if bestID < 0 {
		return nil
	}
	return a.pathThrough(bestID)
}

// critCursor selects, in amortized O(n log n) total, the unassigned logic
// gate with the maximum through-criticality — the gate Procedure 1's path
// selection previously found with an O(n) scan per path, which made budget
// assignment quadratic on deep circuits. Gates are pre-sorted by
// (Through desc, id asc); since Up/Down never change during assignment and
// gates only ever flip to assigned, a monotone cursor over that order returns
// exactly the gate the linear scan's `if th > best` rule (first maximum, i.e.
// smallest ID among ties) would have picked.
type critCursor struct {
	a   *Analysis
	pos int
}

func newCritCursor(a *Analysis) *critCursor {
	if a.byThrough == nil {
		ids := make([]int32, 0, len(a.cs.IsLogic))
		for i, logic := range a.cs.IsLogic {
			if logic {
				ids = append(ids, int32(i))
			}
		}
		sort.Slice(ids, func(x, y int) bool {
			tx, ty := a.Through(int(ids[x])), a.Through(int(ids[y]))
			if tx != ty {
				return tx > ty
			}
			return ids[x] < ids[y]
		})
		a.byThrough = ids
	}
	return &critCursor{a: a}
}

// next returns the most critical unassigned logic gate, or -1 when none
// remain.
func (cc *critCursor) next(assigned []bool) int {
	for cc.pos < len(cc.a.byThrough) {
		id := cc.a.byThrough[cc.pos]
		if !assigned[id] {
			return int(id)
		}
		cc.pos++
	}
	return -1
}
